package cost

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rewrite"
	"repro/internal/ucrpq"
)

// memoPlanSpace explores a few path queries over a random triple graph:
// plan spaces whose plans share subterms through the rewriter's memo.
func memoPlanSpace(t *testing.T) ([][]core.Term, *Catalog) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := core.NewRelation(core.ColSrc, core.ColPred, core.ColTrg)
	for i := 0; i < 400; i++ {
		g.Add([]core.Value{core.Value(rng.Intn(60)), core.Value(rng.Intn(3)), core.Value(rng.Intn(60))})
	}
	dict := core.NewDict()
	for _, l := range []string{"a", "b", "c"} {
		dict.Intern(l)
	}
	env := core.NewEnv()
	env.Bind("G", g)
	var spaces [][]core.Term
	for _, q := range []string{"?x,?y <- ?x a+/b+/c+ ?y", "?x <- ?x (a|b)+/c+ ?x", "?x,?y <- ?x a/(b/c)+ ?y"} {
		ltr, rtl, err := ucrpq.TranslateBoth(ucrpq.MustParse(q), "G", dict)
		if err != nil {
			t.Fatal(err)
		}
		rw := rewrite.NewRewriter(core.SchemaEnv{"G": g.Cols()})
		rw.MaxPlans = 512
		spaces = append(spaces, rw.ExploreBoth(ltr, rtl))
	}
	return spaces, FromEnv(env)
}

// TestSelectBestMatchesFreshEstimates: ranking a plan space with one
// memoizing estimator gives every plan exactly the estimate a fresh
// estimator gives it alone.
func TestSelectBestMatchesFreshEstimates(t *testing.T) {
	spaces, cat := memoPlanSpace(t)
	for _, plans := range spaces {
		_, ranking := SelectBest(plans, cat)
		for i, r := range ranking {
			fresh, err := NewEstimator(cat).Estimate(plans[i])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(r.Cost) != math.Float64bits(fresh.Cost) ||
				math.Float64bits(r.Est.Rows) != math.Float64bits(fresh.Rows) ||
				math.Float64bits(r.Est.Mem) != math.Float64bits(fresh.Mem) {
				t.Fatalf("plan %d: memoized cost %v rows %v mem %v, fresh %v %v %v\n%s",
					i, r.Cost, r.Est.Rows, r.Est.Mem, fresh.Cost, fresh.Rows, fresh.Mem, plans[i])
			}
		}
	}
}

// TestMemoizedEstimatesImmutable: an estimate memoized while costing one
// plan is unchanged after every plan sharing it has been estimated.
func TestMemoizedEstimatesImmutable(t *testing.T) {
	spaces, cat := memoPlanSpace(t)
	for _, plans := range spaces {
		es := NewEstimator(cat)
		if _, err := es.Estimate(plans[0]); err != nil {
			t.Fatal(err)
		}
		snap := make(map[core.Term]Estimate, len(es.memo))
		for term, e := range es.memo {
			snap[term] = *e.clone()
		}
		if len(snap) == 0 {
			t.Fatal("nothing memoized")
		}
		for _, p := range plans[1:] {
			if _, err := es.Estimate(p); err != nil {
				t.Fatal(err)
			}
		}
		for term, want := range snap {
			if got := *es.memo[term]; !reflect.DeepEqual(got, want) {
				t.Fatalf("memoized estimate of %s changed:\n got  %+v\n want %+v", term, got, want)
			}
		}
	}
}

// TestEstimatorSharesFixpointSeeds: two fixpoints over one seed subterm
// share its estimate. Estimating the second memoizes only itself and
// subterms of its own φ branch: its seed, the caller's own subterm, is a
// memo hit rather than a copy estimated afresh.
func TestEstimatorSharesFixpointSeeds(t *testing.T) {
	env := core.NewEnv()
	env.Bind("E", chainGraph(50))
	es := NewEstimator(FromEnv(env))
	e := &core.Var{Name: "E"}
	seed := core.Compose(&core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 3}, T: e}, e)
	lr := &core.Fixpoint{X: "X", Body: &core.Union{L: seed, R: core.Compose(&core.Var{Name: "X"}, e)}}
	step := core.Compose(e, &core.Var{Name: "Y"})
	rl := &core.Fixpoint{X: "Y", Body: &core.Union{L: seed, R: step}}
	if _, err := es.Estimate(lr); err != nil {
		t.Fatal(err)
	}
	seedEst, ok := es.memo[seed]
	if !ok {
		t.Fatalf("the seed %s was estimated as a copy, not memoized as itself", seed)
	}
	known := map[core.Term]bool{rl: true}
	for term := range es.memo {
		known[term] = true
	}
	core.Walk(step, func(s core.Term) bool {
		known[s] = true
		return true
	})
	if _, err := es.Estimate(rl); err != nil {
		t.Fatal(err)
	}
	if es.memo[seed] != seedEst {
		t.Fatal("the second fixpoint re-estimated the shared seed")
	}
	for term := range es.memo {
		if !known[term] {
			t.Fatalf("the second fixpoint estimated %s, a copy of a seed subterm", term)
		}
	}
}
