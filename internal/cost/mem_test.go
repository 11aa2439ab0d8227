package cost

import (
	"math"
	"testing"

	"repro/internal/core"
)

func closureOverEdges(n int) (*Catalog, core.Term) {
	edges := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < n; i++ {
		edges.Add([]core.Value{core.Value(i), core.Value(i + 1)})
	}
	cat := NewCatalog()
	cat.BindRelation("E", edges)
	return cat, core.ClosureLR("X", &core.Var{Name: "E"})
}

func TestEstimateMemGrowsWithFixpoint(t *testing.T) {
	cat, term := closureOverEdges(200)
	est, err := NewEstimator(cat).Estimate(term)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mem <= 0 {
		t.Fatalf("fixpoint memory estimate must be positive, got %g", est.Mem)
	}
	// The accumulator must dominate: at least the seed at AccRowBytes.
	if min := 200 * float64(core.AccRowBytes(2)); est.Mem < min {
		t.Fatalf("fixpoint Mem %g below the seed accumulator floor %g", est.Mem, min)
	}
	// The recursive join builds its index on the constant side (E), so
	// the estimate must price at least E's full index — not the delta.
	if min := 200 * float64(core.IndexRowBytes); est.Mem < min {
		t.Fatalf("fixpoint Mem %g below the constant build-side index floor %g", est.Mem, min)
	}
	smallCat, smallTerm := closureOverEdges(20)
	smallEst, err := NewEstimator(smallCat).Estimate(smallTerm)
	if err != nil {
		t.Fatal(err)
	}
	if smallEst.Mem >= est.Mem {
		t.Fatalf("memory estimate not monotone: %g (20 edges) >= %g (200 edges)", smallEst.Mem, est.Mem)
	}
}

func TestPlanMemorySetsTheGauge(t *testing.T) {
	cat, term := closureOverEdges(100)
	est, err := NewEstimator(cat).Estimate(term)
	if err != nil {
		t.Fatal(err)
	}
	// Generous budget: no spill expected.
	mp := MemPlanFromEstimate(est, 1<<30)
	if mp.ExpectSpill || mp.PeakBytes != est.Mem {
		t.Fatalf("1 GiB budget should not expect spill (peak %g, estimate %g)", mp.PeakBytes, est.Mem)
	}
	// Starved budget: the estimator predicts spilling before execution.
	starved := MemPlanFromEstimate(est, 64)
	if !starved.ExpectSpill {
		t.Fatalf("64-byte budget must expect spill (peak %g)", starved.PeakBytes)
	}
	// Unlimited budget: spilling is never expected.
	free := MemPlanFromEstimate(est, 0)
	if free.ExpectSpill {
		t.Fatal("no budget, no spill expectation")
	}
	// A plan that failed to estimate peaks at +Inf and spills under any
	// budget.
	if failed := MemPlanFromEstimate(nil, 1<<30); !math.IsInf(failed.PeakBytes, 1) || !failed.ExpectSpill {
		t.Fatalf("unestimated plan: %+v", failed)
	}
}
