package cost

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

func chainGraph(n int) *core.Relation {
	r := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < n; i++ {
		r.Add([]core.Value{core.Value(i), core.Value(i + 1)})
	}
	return r
}

func TestStatsOfExact(t *testing.T) {
	r := core.NewRelation(core.ColSrc, core.ColTrg)
	r.Add([]core.Value{1, 2})
	r.Add([]core.Value{1, 3})
	r.Add([]core.Value{2, 3})
	s := StatsOf(r)
	if s.Rows != 3 || s.Distinct[core.ColSrc] != 2 || s.Distinct[core.ColTrg] != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEstimateBaseOps(t *testing.T) {
	env := core.NewEnv()
	e := chainGraph(100)
	env.Bind("E", e)
	cat := FromEnv(env)
	es := NewEstimator(cat)

	// Filter on src: about one row out of 100 distinct.
	est, err := es.Estimate(&core.Filter{
		Cond: core.EqConst{Col: core.ColSrc, Val: 5},
		T:    &core.Var{Name: "E"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Rows < 0.5 || est.Rows > 2 {
		t.Fatalf("filter estimate = %v rows, want ≈1", est.Rows)
	}

	// Self-join of the chain on the middle column ≈ 99 rows.
	j := core.Compose(&core.Var{Name: "E"}, &core.Var{Name: "E"})
	est, err = es.Estimate(j)
	if err != nil {
		t.Fatal(err)
	}
	if est.Rows < 30 || est.Rows > 300 {
		t.Fatalf("compose estimate = %v rows, want ≈100", est.Rows)
	}
}

func TestEstimateUnknownRelation(t *testing.T) {
	es := NewEstimator(NewCatalog())
	if _, err := es.Estimate(&core.Var{Name: "missing"}); err == nil {
		t.Fatal("expected error for missing stats")
	}
	// A plan that fails to estimate ranks last.
	_, ranking := SelectBest([]core.Term{&core.Var{Name: "missing"}}, es.Cat)
	if c := ranking[0].Cost; !math.IsInf(c, 1) || ranking[0].Est != nil {
		t.Fatalf("cost = %v, estimate %v, want +Inf and none", c, ranking[0].Est)
	}
}

// estimateCost returns the estimated cost of t, failing the test when t
// does not estimate.
func estimateCost(t *testing.T, es *Estimator, term core.Term) float64 {
	t.Helper()
	e, err := es.Estimate(term)
	if err != nil {
		t.Fatal(err)
	}
	return e.Cost
}

func TestFixpointEstimateSaneOnChain(t *testing.T) {
	// Transitive closure of a 60-chain has 60*61/2 = 1830 pairs.
	env := core.NewEnv()
	env.Bind("E", chainGraph(60))
	cat := FromEnv(env)
	es := NewEstimator(cat)
	fp := core.ClosureLR("X", &core.Var{Name: "E"})
	est, err := es.Estimate(fp)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := core.Eval(fp, env)
	if err != nil {
		t.Fatal(err)
	}
	ratio := est.Rows / float64(actual.Len())
	if ratio < 0.01 || ratio > 100 {
		t.Fatalf("fixpoint estimate %v vs actual %d (ratio %v) out of bounds",
			est.Rows, actual.Len(), ratio)
	}
	if est.Cost <= 0 || math.IsInf(est.Cost, 0) || math.IsNaN(est.Cost) {
		t.Fatalf("cost = %v", est.Cost)
	}
}

func TestFilteredPlanCheaper(t *testing.T) {
	// On a star-ish random graph, the plan that pushes a selective filter
	// into the fixpoint must cost less than filtering afterwards.
	rng := rand.New(rand.NewSource(5))
	e := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 400; i++ {
		e.Add([]core.Value{core.Value(rng.Intn(100)), core.Value(rng.Intn(100))})
	}
	env := core.NewEnv()
	env.Bind("E", e)
	cat := FromEnv(env)
	es := NewEstimator(cat)

	fpLR := core.ClosureLR("X", &core.Var{Name: "E"})
	unpushed := &core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 7}, T: fpLR}
	pushed := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 7}, T: &core.Var{Name: "E"}},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
	cu := estimateCost(t, es, unpushed)
	cp := estimateCost(t, es, pushed)
	if cp >= cu {
		t.Fatalf("pushed plan not cheaper: pushed=%v unpushed=%v", cp, cu)
	}
}

func TestSelectBestPrefersPushedPlan(t *testing.T) {
	// Explore the plan space of ?x <- C a+ ?x and check the selected plan
	// costs no more than the naive translation.
	rng := rand.New(rand.NewSource(6))
	g := core.NewRelation(core.ColSrc, core.ColPred, core.ColTrg)
	dict := core.NewDict()
	la := dict.Intern("a")
	cID := dict.Intern("C")
	for i := 0; i < 500; i++ {
		g.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
			[]core.Value{core.Value(rng.Intn(120) + 1000), la, core.Value(rng.Intn(120) + 1000)})
	}
	g.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
		[]core.Value{cID, la, 1000})
	env := core.NewEnv()
	env.Bind("G", g)

	q := ucrpq.MustParse("?x <- C a+ ?x")
	term, err := ucrpq.Translate(q, "G", dict, rpq.LeftToRight)
	if err != nil {
		t.Fatal(err)
	}
	rw := rewrite.NewRewriter(core.SchemaEnv{"G": g.Cols()})
	rw.MaxPlans = 100
	plans := rw.Explore(term)
	if len(plans) < 3 {
		t.Fatalf("plan space too small: %d", len(plans))
	}
	cat := FromEnv(env)
	best, ranking := SelectBest(plans, cat)
	if best == nil || len(ranking) != len(plans) {
		t.Fatal("SelectBest returned nothing")
	}
	naiveCost := ranking[0].Cost // plans[0] is the unoptimized translation
	bestCost := math.Inf(1)
	for _, r := range ranking {
		if r.Cost < bestCost {
			bestCost = r.Cost
		}
	}
	if bestCost > naiveCost {
		t.Fatalf("best plan (%v) costs more than naive (%v)", bestCost, naiveCost)
	}
	// The selected plan must evaluate to the same result as the original.
	want, err := core.Eval(term, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Eval(best, env)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("selected plan wrong: %s", best)
	}
}

func TestMergedPlanCheaperOnDisjointClosures(t *testing.T) {
	// a-edges and b-edges over disjoint node sets: a+/b+ is empty, so the
	// merged fixpoint (which never materializes either closure) should be
	// estimated cheaper than composing the two full closures.
	ra := core.NewRelation(core.ColSrc, core.ColTrg)
	rb := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 200; i++ {
		ra.Add([]core.Value{core.Value(i), core.Value(i + 1)})
		rb.Add([]core.Value{core.Value(i + 10000), core.Value(i + 10001)})
	}
	env := core.NewEnv()
	env.Bind("A", ra)
	env.Bind("B", rb)
	cat := FromEnv(env)
	es := NewEstimator(cat)

	composed := core.Compose(
		core.ClosureLR("X", &core.Var{Name: "A"}),
		core.ClosureLR("Y", &core.Var{Name: "B"}),
	)
	zv := &core.Var{Name: "Z"}
	merged := &core.Fixpoint{X: "Z", Body: core.UnionOf([]core.Term{
		core.Compose(&core.Var{Name: "A"}, &core.Var{Name: "B"}),
		core.Compose(&core.Var{Name: "A"}, zv),
		core.Compose(zv, &core.Var{Name: "B"}),
	})}
	cc := estimateCost(t, es, composed)
	cm := estimateCost(t, es, merged)
	if cm >= cc {
		t.Fatalf("merged plan not cheaper: merged=%v composed=%v", cm, cc)
	}
}

func TestRankingCorrelatesWithRuntimeOrder(t *testing.T) {
	// Weak but meaningful check (Fig. 15's aggregate claim): across the
	// plan space of a query, the plan ranked best by cost must be within
	// the cheaper half by actual evaluated fixpoint work.
	rng := rand.New(rand.NewSource(7))
	g := core.NewRelation(core.ColSrc, core.ColPred, core.ColTrg)
	dict := core.NewDict()
	la, lb := dict.Intern("a"), dict.Intern("b")
	for i := 0; i < 300; i++ {
		l := la
		if rng.Intn(2) == 0 {
			l = lb
		}
		g.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
			[]core.Value{core.Value(rng.Intn(80)), l, core.Value(rng.Intn(80))})
	}
	env := core.NewEnv()
	env.Bind("G", g)
	q := ucrpq.MustParse("?x,?y <- ?x a+/b ?y")
	term, err := ucrpq.Translate(q, "G", dict, rpq.LeftToRight)
	if err != nil {
		t.Fatal(err)
	}
	rw := rewrite.NewRewriter(core.SchemaEnv{"G": g.Cols()})
	rw.MaxPlans = 40
	plans := rw.Explore(term)
	best, _ := SelectBest(plans, FromEnv(env))

	work := func(p core.Term) int {
		ev := core.NewEvaluator(env)
		if _, err := ev.Eval(p); err != nil {
			t.Fatalf("eval %s: %v", p, err)
		}
		return ev.Stats.OpTuples
	}
	bestWork := work(best)
	minWork := bestWork
	for _, p := range plans {
		if w := work(p); w < minWork {
			minWork = w
		}
	}
	// Fig. 15 aggregate: the selected plan is on average ~20% slower than
	// the true best; allow 2× here on a much smaller instance.
	if float64(bestWork) > 2*float64(minWork)+100 {
		t.Fatalf("cost-selected plan does %d tuple-work, true best %d", bestWork, minWork)
	}
}

func TestCondSelectivities(t *testing.T) {
	env := core.NewEnv()
	env.Bind("E", chainGraph(100))
	es := NewEstimator(FromEnv(env))
	eval := func(c core.Condition) float64 {
		est, err := es.Estimate(&core.Filter{Cond: c, T: &core.Var{Name: "E"}})
		if err != nil {
			t.Fatal(err)
		}
		return est.Rows
	}
	eq := eval(core.EqConst{Col: core.ColSrc, Val: 1})
	ne := eval(core.NeConst{Col: core.ColSrc, Val: 1})
	if eq+ne < 99 || eq+ne > 101 {
		t.Fatalf("eq+ne = %v, want ≈100", eq+ne)
	}
	both := eval(core.And{
		core.EqConst{Col: core.ColSrc, Val: 1},
		core.EqConst{Col: core.ColTrg, Val: 2},
	})
	if both > eq {
		t.Fatalf("conjunction (%v) less selective than one term (%v)", both, eq)
	}
	either := eval(core.Or{
		core.EqConst{Col: core.ColSrc, Val: 1},
		core.EqConst{Col: core.ColSrc, Val: 2},
	})
	if either < eq {
		t.Fatalf("disjunction (%v) more selective than one term (%v)", either, eq)
	}
	cols := eval(core.EqCols{A: core.ColSrc, B: core.ColTrg})
	if cols <= 0 || cols > 10 {
		t.Fatalf("src=trg selectivity = %v rows", cols)
	}
}

func TestAntijoinAndAntiProjectEstimates(t *testing.T) {
	env := core.NewEnv()
	env.Bind("E", chainGraph(100))
	env.Bind("S", chainGraph(10))
	es := NewEstimator(FromEnv(env))
	aj, err := es.Estimate(&core.Antijoin{L: &core.Var{Name: "E"}, R: &core.Var{Name: "S"}})
	if err != nil {
		t.Fatal(err)
	}
	if aj.Rows <= 0 || aj.Rows > 100 {
		t.Fatalf("antijoin rows = %v", aj.Rows)
	}
	ap, err := es.Estimate(&core.AntiProject{Cols: []string{core.ColTrg}, T: &core.Var{Name: "E"}})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Rows > 100 || len(ap.Cols) != 1 {
		t.Fatalf("antiproject estimate = %+v", ap)
	}
	if len(ap.Distinct) != 1 || core.ColIndex(ap.Cols, core.ColTrg) >= 0 {
		t.Fatalf("dropped column still has a distinct estimate: %+v", ap)
	}
}

func TestConstTupleAndUnionEstimates(t *testing.T) {
	env := core.NewEnv()
	env.Bind("E", chainGraph(50))
	es := NewEstimator(FromEnv(env))
	ct, err := es.Estimate(core.NewConstTuple([]string{core.ColSrc, core.ColTrg}, []core.Value{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if ct.Rows != 1 {
		t.Fatalf("const tuple rows = %v", ct.Rows)
	}
	u, err := es.Estimate(&core.Union{L: &core.Var{Name: "E"}, R: &core.Var{Name: "E"}})
	if err != nil {
		t.Fatal(err)
	}
	if u.Rows != 100 {
		t.Fatalf("union rows = %v (upper bound 2×50)", u.Rows)
	}
	// Distinct counts never exceed rows.
	for i, d := range u.Distinct {
		if d > u.Rows {
			t.Fatalf("distinct[%s]=%v > rows %v", u.Cols[i], d, u.Rows)
		}
	}
}
