package benchkit

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
)

// This file is the closure micro-experiment: the engine's fixpoint hot
// paths (deep chain closure and sparse-graph closure, sequential and
// parallel) timed as medians of several repetitions. The records it emits
// into BENCH_results.json are the perf trajectory CI consumes: cmd/
// murabench -baseline compares a fresh run against the committed file and
// fails on regression.

// closureChain builds a path graph 0→1→…→n-1: one semi-naive iteration
// per hop, the worst case for fixpoint depth.
func closureChain(n int) *core.Relation {
	r := core.NewRelationSized(n, core.ColSrc, core.ColTrg)
	for i := 0; i < n-1; i++ {
		r.Add([]core.Value{core.Value(i), core.Value(i + 1)})
	}
	return r
}

// closureSparse builds a random sparse graph: few iterations, large
// per-iteration deltas (the shape that engages the parallel drain).
func closureSparse(nodes, edges int, seed int64) *core.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := core.NewRelationSized(edges, core.ColSrc, core.ColTrg)
	for i := 0; i < edges; i++ {
		r.Add([]core.Value{core.Value(rng.Intn(nodes)), core.Value(rng.Intn(nodes))})
	}
	return r
}

// closureReps is how many times each workload runs; the median is
// recorded, which keeps the CI regression gate stable against scheduler
// noise.
const closureReps = 7

// Closure runs the closure microbenchmarks. Sizes are fixed (not scaled)
// so records stay comparable across machines of one CI lane and across
// PRs.
func Closure(s Scale) *Table {
	t := &Table{
		Title:   "Closure microbenchmarks: the fixpoint hot path (median of " + fmt.Sprint(closureReps) + " runs)",
		Columns: []string{"seconds", "rows"},
	}
	bench := func(label string, parallel int, edges *core.Relation, wantRows int) {
		term := core.ClosureLR("X", &core.Var{Name: "E"})
		env := core.NewEnv()
		env.Bind("E", edges)
		times := make([]float64, 0, closureReps)
		rows := 0
		for i := 0; i < closureReps; i++ {
			ev := core.NewEvaluator(env)
			ev.Parallel = parallel
			start := time.Now()
			out, err := ev.Eval(term)
			elapsed := time.Since(start).Seconds()
			// Release the evaluator's cached join indexes between reps;
			// the materialized result is independent of it.
			ev.Close()
			if err != nil {
				t.Add(label, "X", err.Error())
				recordRun(label, &Result{System: "Dist-µ-RA", Crashed: true, Err: err})
				return
			}
			rows = out.Len()
			times = append(times, elapsed)
		}
		if wantRows > 0 && rows != wantRows {
			err := fmt.Errorf("closure produced %d rows, want %d", rows, wantRows)
			t.Add(label, "X", err.Error())
			recordRun(label, &Result{System: "Dist-µ-RA", Crashed: true, Err: err})
			return
		}
		sort.Float64s(times)
		med := times[len(times)/2]
		t.Add(label, fmt.Sprintf("%.4f", med), fmt.Sprint(rows))
		recordRun(label, &Result{System: "Dist-µ-RA", Seconds: med, Rows: rows, Info: "centralized streaming"})
	}
	const chainN = 256
	bench("closure chain=256", 1, closureChain(chainN), chainN*(chainN-1)/2)
	sparse := closureSparse(1200, 3600, 7)
	bench("closure sparse seq", 1, sparse, 0)
	bench("closure sparse par", 0, sparse, 0)
	// A forced 4-worker pool exercises the parallel delta drain into the
	// concurrent accumulator even on runners whose CPU budget is 1 (where
	// "par" degrades to the sequential path).
	bench("closure sparse par4", 4, sparse, 0)
	t.Notes = append(t.Notes,
		"chain=256 is the per-iteration overhead probe (255 tiny deltas); sparse engages the parallel drain",
		"par4 forces a 4-worker delta drain (concurrent accumulator) regardless of GOMAXPROCS")
	return t
}
