package benchkit

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/physical"
)

// This file is the spill micro-experiment of the memory-governance layer:
// a transitive closure whose accumulator working set is first *measured*
// on an unbudgeted run (metering gauge), then re-run under a budget of a
// third of that working set — more than 2× over budget — proving it
// completes by spilling, matches the unbudgeted rows, and stays within a
// bounded slowdown instead of OOMing. One local (centralized evaluator)
// and one distributed (Pgld) record land in BENCH_results.json; CI runs
// the experiment in a capped temp dir and fails on leftover spill files.

// spillReps is lower than closureReps: the spill record gates completion
// and equality, not speed, so median stability matters less than keeping
// the CI smoke quick.
const spillReps = 3

// spillWorkload builds the closure input: sparse enough for a handful of
// iterations, big enough that the accumulator dominates memory.
func spillWorkload() *core.Relation {
	return closureSparse(700, 2100, 11)
}

// medianOf runs f reps times and returns the median duration in seconds.
func medianOf(reps int, f func() error) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

// Spill runs the memory-governance micro-experiment and returns its table.
func Spill(s Scale) *Table {
	t := &Table{
		Title:   "Spill experiment: closure forced >2x over the task memory budget",
		Columns: []string{"seconds", "rows", "budget(B)", "spills", "spilled(B)"},
	}
	dir, err := os.MkdirTemp("", "mura-spill-exp-")
	if err != nil {
		t.Add("setup", "X", err.Error())
		return t
	}
	defer os.RemoveAll(dir)

	edges := spillWorkload()
	env := core.NewEnv()
	env.Bind("E", edges)
	term := core.ClosureLR("X", &core.Var{Name: "E"})

	// Step 1: unbudgeted run with a metering-only gauge — measures the
	// operator working set the budget will be derived from, and provides
	// the reference rows. The estimator's prediction is recorded alongside
	// the measurement so the cost model stays honest.
	meter := core.NewMemGauge(0, dir)
	var want *core.Relation
	freeSecs, err := medianOf(spillReps, func() error {
		ev := core.NewEvaluator(env)
		ev.Gauge = meter
		defer ev.Close()
		out, err := ev.Eval(term)
		want = out
		return err
	})
	if err != nil {
		t.Add("unbudgeted", "X", err.Error())
		return t
	}
	peak := meter.Peak()
	cat := cost.NewCatalog()
	cat.BindRelation("E", edges)
	predicted := cost.PlanMemory(term, cat, peak/3)
	t.Add("unbudgeted local", fmt.Sprintf("%.4f", freeSecs), fmt.Sprint(want.Len()),
		fmt.Sprintf("peak=%d", peak), "0", "0")
	recordRun("spill closure unbudgeted", &Result{
		System: "Dist-µ-RA", Seconds: freeSecs, Rows: want.Len(),
		Info: fmt.Sprintf("peak=%dB estPeak=%.0fB", peak, predicted.PeakBytes),
	})

	// Step 2: the same closure under a third of the measured working set —
	// the workload is >2× the budget, so governance must spill. The gauge
	// is materialized from the estimator's MemPlan: the §IV cost estimator
	// setting the budget the operators will charge against. A fresh gauge
	// per repetition keeps the recorded spill counters (and the byte cap
	// below) the cost of ONE run, not the sum over repetitions.
	budget := peak / 3
	var gauge *core.MemGauge
	var got *core.Relation
	spillSecs, err := medianOf(spillReps, func() error {
		gauge = predicted.NewGauge(dir)
		ev := core.NewEvaluator(env)
		ev.Gauge = gauge
		defer ev.Close()
		out, err := ev.Eval(term)
		got = out
		return err
	})
	// spillByteCap bounds the experiment's disk churn: spill files are
	// unlinked at creation so an external du cannot see them — the cap is
	// enforced here, on the gauge's own accounting.
	const spillByteCap = 512 << 20
	res := &Result{System: "Dist-µ-RA"}
	switch {
	case err != nil:
		res.Crashed, res.Err = true, err
		t.Add("budgeted local", "X", err.Error())
	case gauge.Spills() == 0:
		res.Crashed, res.Err = true, fmt.Errorf("no spill under budget %d (peak %d)", budget, peak)
		t.Add("budgeted local", "X", res.Err.Error())
	case gauge.SpilledBytes() > spillByteCap:
		res.Crashed, res.Err = true, fmt.Errorf("spilled %d bytes, over the %d cap", gauge.SpilledBytes(), int64(spillByteCap))
		t.Add("budgeted local", "X", res.Err.Error())
	case !core.SameRows(got, want):
		res.Crashed, res.Err = true, fmt.Errorf("spilled rows diverge: %d vs %d", got.Len(), want.Len())
		t.Add("budgeted local", "X", res.Err.Error())
	default:
		res.Seconds, res.Rows = spillSecs, got.Len()
		res.Info = fmt.Sprintf("budget=%dB spills=%d spilled=%dB slowdown=%.2fx expectSpill=%v",
			budget, gauge.Spills(), gauge.SpilledBytes(), spillSecs/freeSecs, predicted.ExpectSpill)
		t.Add("budgeted local", fmt.Sprintf("%.4f", spillSecs), fmt.Sprint(got.Len()),
			fmt.Sprint(budget), fmt.Sprint(gauge.Spills()), fmt.Sprint(gauge.SpilledBytes()))
	}
	recordRun("spill closure budgeted", res)

	// Step 3: the distributed variant — Pgld with per-worker budgets
	// derived from the same measurement (the per-worker share of X).
	wbudget := peak / int64(s.Workers) / 3
	if wbudget < 1<<10 {
		wbudget = 1 << 10
	}
	gldRes := runSpillGld(env, term, want, s, dir, wbudget)
	if gldRes.Crashed {
		t.Add("budgeted Pgld", "X", gldRes.Err.Error())
	} else {
		t.Add("budgeted Pgld", fmt.Sprintf("%.4f", gldRes.Seconds), fmt.Sprint(gldRes.Rows),
			fmt.Sprint(wbudget), gldRes.Info, "-")
	}
	recordRun("spill closure pgld", gldRes)

	// Leak check: the experiment's own spill dir must be empty — runs are
	// unlinked at creation, so anything visible is a regression.
	if leftovers, _ := filepath.Glob(filepath.Join(dir, core.SpillFilePattern)); len(leftovers) > 0 {
		t.Add("leak check", "X", fmt.Sprintf("%d leftover spill files", len(leftovers)))
	} else {
		t.Add("leak check", "ok", "0 leftover files")
	}
	t.Notes = append(t.Notes,
		"budget = measured unbudgeted peak / 3 (workload >2x over budget); rows must match the unbudgeted run",
		"slowdown is the honest price of spilling; the gate is completion + equality, not speed")
	return t
}

// runSpillGld executes the closure as a Pgld fixpoint on a private
// budgeted cluster and checks the rows against the unbudgeted reference.
func runSpillGld(env *core.Env, term core.Term, want *core.Relation, s Scale, dir string, budget int64) *Result {
	res := &Result{System: "Dist-µ-RA"}
	c, err := cluster.New(cluster.Config{
		Workers:      s.Workers,
		TaskMemBytes: budget,
		SpillDir:     dir,
	})
	if err != nil {
		res.Crashed, res.Err = true, err
		return res
	}
	defer c.Close()
	p := physical.NewPlanner(c, env)
	p.Force = physical.Gld
	start := time.Now()
	got, _, err := p.Execute(term)
	res.Seconds = time.Since(start).Seconds()
	if err != nil {
		res.Crashed, res.Err = true, err
		return res
	}
	var spills int64
	for _, g := range c.Gauges() {
		spills += g.Spills()
	}
	switch {
	case spills == 0:
		res.Crashed, res.Err = true, fmt.Errorf("Pgld did not spill under per-worker budget %d", budget)
	case !core.SameRows(got, want):
		res.Crashed, res.Err = true, fmt.Errorf("Pgld spilled rows diverge: %d vs %d", got.Len(), want.Len())
	default:
		res.Rows = got.Len()
		res.Info = fmt.Sprintf("spills=%d", spills)
		res.Metrics = c.Metrics().Snapshot()
	}
	return res
}
