package cost

import "math"

// This file pairs the §IV cost estimator with the runtime memory governor:
// the estimator predicts the chosen plan's peak operator-owned memory and
// whether it will spill under the per-task budget that the cluster's
// gauges enforce (cluster.Config.TaskMemBytes). The estimate and the gauge
// share one set of per-row accounting constants (core.AccRowBytes,
// core.IndexRowBytes), so "estimated peak" and "measured peak" are in the
// same units; ARCHITECTURE.md ("Memory governance") documents the flow.

// MemPlan is the estimator's memory verdict for one task: the predicted
// peak of operator-owned state, the configured per-task budget, and
// whether the plan is expected to spill under that budget.
type MemPlan struct {
	// PeakBytes is the estimated peak operator-owned memory (join build
	// indexes, dedup sinks, fixpoint accumulators) of evaluating the term.
	PeakBytes float64
	// BudgetBytes is the per-task budget (<= 0 means unlimited).
	BudgetBytes int64
	// ExpectSpill is true when PeakBytes exceeds the budget: the gauge
	// makes the plan degrade to disk instead of failing.
	ExpectSpill bool
}

// MemPlanFromEstimate builds the memory verdict from a term's estimate,
// such as the one SelectBest's ranking holds for the winner (nil means
// estimation failed: +Inf peak, so an unestimated plan ranks last).
func MemPlanFromEstimate(est *Estimate, taskBudgetBytes int64) MemPlan {
	mp := MemPlan{BudgetBytes: taskBudgetBytes, PeakBytes: math.Inf(1)}
	if est != nil {
		mp.PeakBytes = est.Mem
	}
	mp.ExpectSpill = taskBudgetBytes > 0 && mp.PeakBytes > float64(taskBudgetBytes)
	return mp
}
