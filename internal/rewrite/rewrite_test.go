package rewrite

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// randomTripleGraph builds a triple relation over nLabels predicates.
func randomTripleGraph(rng *rand.Rand, nodes, edges, nLabels int) *core.Relation {
	r := core.NewRelation(core.ColSrc, core.ColPred, core.ColTrg)
	for i := 0; i < edges; i++ {
		r.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
			[]core.Value{
				core.Value(rng.Intn(nodes) + 1000),
				core.Value(rng.Intn(nLabels)),
				core.Value(rng.Intn(nodes) + 1000),
			})
	}
	return r
}

func tripleSchemaEnv() core.SchemaEnv {
	return core.SchemaEnv{"G": []string{core.ColPred, core.ColSrc, core.ColTrg}}
}

// assertAllPlansEquivalent evaluates every plan against env and compares to
// the first.
func assertAllPlansEquivalent(t *testing.T, plans []core.Term, env *core.Env) {
	t.Helper()
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	want, err := core.Eval(plans[0], env)
	if err != nil {
		t.Fatalf("eval reference plan %s: %v", plans[0], err)
	}
	for i, p := range plans[1:] {
		got, err := core.Eval(p, env)
		if err != nil {
			t.Fatalf("plan %d (%s): %v", i+1, p, err)
		}
		if !got.Equal(want) {
			t.Fatalf("plan %d not equivalent:\n  plan: %s\n  got:  %v\n  want: %v\n  ref:  %s",
				i+1, p, got, want, plans[0])
		}
	}
}

// exploreQuery translates a UCRPQ and explores its plan space.
func exploreQuery(t *testing.T, query string, dict *core.Dict, maxPlans int) []core.Term {
	t.Helper()
	q := ucrpq.MustParse(query)
	term, err := ucrpq.Translate(q, "G", dict, rpq.LeftToRight)
	if err != nil {
		t.Fatal(err)
	}
	rw := NewRewriter(tripleSchemaEnv())
	rw.MaxPlans = maxPlans
	return rw.Explore(term)
}

func TestExploreFindsReversalAndFilterPush(t *testing.T) {
	dict := core.NewDict()
	dict.Intern("a")
	plans := exploreQuery(t, "?x <- ?x a+ Const", dict, 200)
	if len(plans) < 2 {
		t.Fatalf("plan space too small: %d", len(plans))
	}
	// Some plan must contain a fixpoint whose constant part carries the
	// trg filter — the reverse + push-filter combination (class C2).
	found := false
	for _, p := range plans {
		core.Walk(p, func(s core.Term) bool {
			if fp, ok := s.(*core.Fixpoint); ok {
				d, err := core.Decompose(fp)
				if err == nil && strings.Contains(d.Const.String(), "σ[trg=") {
					found = true
				}
			}
			return true
		})
	}
	if !found {
		t.Fatal("no plan pushed the constant filter into a fixpoint (reversal + filter push missing)")
	}
}

func TestExploreFindsMergedClosures(t *testing.T) {
	dict := core.NewDict()
	plans := exploreQuery(t, "?x,?y <- ?x a+/b+ ?y", dict, 300)
	found := false
	for _, p := range plans {
		core.Walk(p, func(s core.Term) bool {
			if fp, ok := s.(*core.Fixpoint); ok {
				if d, err := core.Decompose(fp); err == nil && len(d.PhiBranches) == 2 {
					found = true
				}
			}
			return true
		})
	}
	if !found {
		t.Fatal("no merged fixpoint (two recursive branches) in the plan space of a+/b+")
	}
}

func TestExploreFindsFoldedSeed(t *testing.T) {
	dict := core.NewDict()
	plans := exploreQuery(t, "?x,?y <- ?x b/a+ ?y", dict, 300)
	// Expect a plan whose recursion seeds from b∘a (class C5: push join).
	found := false
	for _, p := range plans {
		core.Walk(p, func(s core.Term) bool {
			fp, ok := s.(*core.Fixpoint)
			if !ok {
				return true
			}
			if r, _, shape := core.MatchLinearFixpoint(fp); shape != core.ShapeNone {
				if _, _, isCompose := core.MatchCompose(r); isCompose {
					found = true
				}
			}
			return true
		})
	}
	if !found {
		t.Fatal("no plan seeds the recursion from b∘a")
	}
}

func TestPlanSpaceSoundnessOnQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	queries := []string{
		"?x,?y <- ?x a+ ?y",
		"?x <- ?x a+ Const",
		"?x <- Const a+ ?x",
		"?x,?y <- ?x a+/b ?y",
		"?x,?y <- ?x b/a+ ?y",
		"?x,?y <- ?x a+/b+ ?y",
		"?y <- ?x a+ ?y",
		"?x <- ?x (a/-a)+ Const",
		"?x,?y <- ?x (a|b)+/c ?y",
		"?x,?y <- ?x a+ ?y, ?y b ?x",
	}
	for _, query := range queries {
		dict := core.NewDict()
		for _, l := range []string{"a", "b", "c"} {
			dict.Intern(l)
		}
		constID := dict.Intern("Const")
		plans := exploreQuery(t, query, dict, 60)
		if len(plans) < 2 {
			t.Fatalf("%s: plan space too small (%d)", query, len(plans))
		}
		g := randomTripleGraph(rng, 7, 18, 3)
		// Make the constant reachable: add edges touching constID.
		g.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
			[]core.Value{1001, 0, constID})
		g.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
			[]core.Value{constID, 0, 1002})
		env := core.NewEnv()
		env.Bind("G", g)
		assertAllPlansEquivalent(t, plans, env)
	}
}

func TestPropertyRandomExprPlanSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	dict := core.NewDict()
	for _, l := range []string{"a", "b", "c"} {
		dict.Intern(l)
	}
	exprs := []string{
		"a+/b+/c+", "a/b+/c", "(a|b)+/c+", "a+/(b/c)+", "-a+/b",
		"(a/b)+/(b/c)+", "a+/b/c+",
	}
	for trial, ex := range exprs {
		g := randomTripleGraph(rng, 6, 16, 3)
		env := core.NewEnv()
		env.Bind("G", g)
		dictCopy := dict
		plans := exploreQuery(t, "?x,?y <- ?x "+ex+" ?y", dictCopy, 80)
		if len(plans) < 2 {
			t.Fatalf("trial %d (%s): plan space too small", trial, ex)
		}
		assertAllPlansEquivalent(t, plans, env)
	}
}

func TestJoinIntoFixpointStablePred(t *testing.T) {
	// A fixpoint carrying a 'pred' column untouched by the recursion can
	// absorb a join with a unary pred relation (the Joined SG pattern).
	// fp = µ(X = S ∪ X∘E) where S has (pred,src,trg) and E has (src,trg).
	env := core.SchemaEnv{
		"S": []string{core.ColPred, core.ColSrc, core.ColTrg},
		"E": []string{core.ColSrc, core.ColTrg},
		"P": []string{core.ColPred},
	}
	fp := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
	join := &core.Join{L: &core.Var{Name: "P"}, R: fp}
	rw := NewRewriter(env)
	// The pushed plan is one of the root's first-level rewrites, which
	// come first in Explore's BFS order.
	var pushed core.Term
	for _, nt := range rw.Explore(join) {
		if fp2, ok := nt.(*core.Fixpoint); ok {
			if d, err := core.Decompose(fp2); err == nil {
				if _, isJoin := d.Const.(*core.Join); isJoin {
					pushed = nt
					break
				}
			}
		}
	}
	if pushed == nil {
		t.Fatal("join-into-fixpoint did not fire on stable pred column")
	}
	// Check semantics on a concrete instance.
	rng := rand.New(rand.NewSource(55))
	s := core.NewRelation(core.ColPred, core.ColSrc, core.ColTrg)
	e := core.NewRelation(core.ColSrc, core.ColTrg)
	p := core.NewRelation(core.ColPred)
	for i := 0; i < 12; i++ {
		s.AddTuple([]string{core.ColPred, core.ColSrc, core.ColTrg},
			[]core.Value{core.Value(rng.Intn(3)), core.Value(rng.Intn(6)), core.Value(rng.Intn(6))})
		e.Add([]core.Value{core.Value(rng.Intn(6)), core.Value(rng.Intn(6))})
	}
	p.Add([]core.Value{1})
	renv := core.NewEnv()
	renv.Bind("S", s)
	renv.Bind("E", e)
	renv.Bind("P", p)
	want, err := core.Eval(join, renv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Eval(pushed, renv)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("pushed join changed semantics:\n%s\n got %v\nwant %v", pushed, got, want)
	}
}

func TestJoinIntoFixpointDeclinesUnstable(t *testing.T) {
	// Joining on trg (not stable in an LR fixpoint) must not push.
	env := core.SchemaEnv{
		"S": []string{core.ColSrc, core.ColTrg},
		"E": []string{core.ColSrc, core.ColTrg},
		"B": []string{core.ColTrg},
	}
	fp := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
	join := &core.Join{L: &core.Var{Name: "B"}, R: fp}
	out := ruleJoinIntoFixpoint(NewRewriter(env), join, env)
	if len(out) != 0 {
		t.Fatalf("rule pushed an unstable join: %v", out)
	}
}

func TestFilterIntoFixpointDeclinesUnstable(t *testing.T) {
	env := core.SchemaEnv{"S": {core.ColSrc, core.ColTrg}, "E": {core.ColSrc, core.ColTrg}}
	fp := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
	filt := &core.Filter{Cond: core.EqConst{Col: core.ColTrg, Val: 1}, T: fp}
	out := ruleFilterIntoFixpoint(NewRewriter(env), filt, env)
	if len(out) != 0 {
		t.Fatalf("rule pushed a filter on an unstable column: %v", out)
	}
	// The src filter is stable and must push.
	filt2 := &core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 1}, T: fp}
	out2 := ruleFilterIntoFixpoint(NewRewriter(env), filt2, env)
	if len(out2) != 1 {
		t.Fatalf("rule did not push the stable filter: %v", out2)
	}
}

func TestAntiProjectIntoFixpoint(t *testing.T) {
	env := core.SchemaEnv{"E": {core.ColSrc, core.ColTrg}}
	fp := core.ClosureLR("X", &core.Var{Name: "E"})
	ap := &core.AntiProject{Cols: []string{core.ColSrc}, T: fp}
	out := ruleAntiProjectIntoFixpoint(NewRewriter(env), ap, env)
	if len(out) != 1 {
		t.Fatalf("antiproject-into-fixpoint did not fire: %v", out)
	}
	// The rewritten fixpoint must have schema {trg} only.
	cols, err := core.Schema(out[0], env)
	if err != nil {
		t.Fatal(err)
	}
	if !core.ColsEqual(cols, []string{core.ColTrg}) {
		t.Fatalf("schema = %v, want [trg]", cols)
	}
	// Semantics check.
	rng := rand.New(rand.NewSource(66))
	e := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 15; i++ {
		e.Add([]core.Value{core.Value(rng.Intn(7)), core.Value(rng.Intn(7))})
	}
	renv := core.NewEnv()
	renv.Bind("E", e)
	want, err := core.Eval(ap, renv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Eval(out[0], renv)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Dropping trg must NOT push (trg is consulted by the recursion).
	ap2 := &core.AntiProject{Cols: []string{core.ColTrg}, T: fp}
	if out := ruleAntiProjectIntoFixpoint(NewRewriter(env), ap2, env); len(out) != 0 {
		t.Fatalf("pushed a consulted column: %v", out)
	}
}

func TestReverseClosureRule(t *testing.T) {
	env := core.SchemaEnv{"E": {core.ColSrc, core.ColTrg}}
	lr := core.ClosureLR("X", &core.Var{Name: "E"})
	out := ruleReverseClosure(NewRewriter(env), lr, env)
	if len(out) != 1 {
		t.Fatalf("reversal did not fire: %v", out)
	}
	if _, _, shape := core.MatchLinearFixpoint(out[0].(*core.Fixpoint)); shape != core.ShapeRL {
		t.Fatalf("reversed shape = %v, want rtl", shape)
	}
	// Non-closure linear fixpoints must not reverse.
	gen := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
	env2 := core.SchemaEnv{"E": {core.ColSrc, core.ColTrg}, "S": {core.ColSrc, core.ColTrg}}
	if out := ruleReverseClosure(NewRewriter(env2), gen, env2); len(out) != 0 {
		t.Fatalf("reversed a non-closure: %v", out)
	}
}

func TestAblationDisablesRules(t *testing.T) {
	dict := core.NewDict()
	q := ucrpq.MustParse("?x,?y <- ?x a+/b+ ?y")
	term, err := ucrpq.Translate(q, "G", dict, rpq.LeftToRight)
	if err != nil {
		t.Fatal(err)
	}
	full := NewRewriter(tripleSchemaEnv())
	full.MaxPlans = 200
	fullPlans := full.Explore(term)

	ablated := NewRewriter(tripleSchemaEnv())
	ablated.MaxPlans = 200
	ablated.Disabled = map[string]bool{"merge-closures": true, "fold-compose-right": true, "fold-compose-left": true}
	ablatedPlans := ablated.Explore(term)
	if len(ablatedPlans) >= len(fullPlans) {
		t.Fatalf("ablation did not shrink the plan space: %d vs %d", len(ablatedPlans), len(fullPlans))
	}
}

func TestExploreCapsPlanSpace(t *testing.T) {
	dict := core.NewDict()
	plans := exploreQuery(t, "?x,?y <- ?x a+/b+/c+ ?y", dict, 25)
	if len(plans) > 25 {
		t.Fatalf("cap exceeded: %d", len(plans))
	}
}

// TestExploreBothMergesDirections: the merged space is the left-to-right
// space followed by the right-to-left plans that are not alpha-equivalent
// to a plan before them, with no two merged plans alpha-equivalent. A
// recursive query's right-to-left translation adds plans when the cap
// stops the left-to-right exploration short of the plans it reaches; a
// non-recursive one translates to the same term both ways and adds none.
func TestExploreBothMergesDirections(t *testing.T) {
	dict := core.NewDict()
	dict.Intern("a")
	dict.Intern("b")
	for _, tc := range []struct {
		query    string
		maxPlans int
		grows    bool
	}{
		{"?x <- ?x a+/b+ Const", 12, true},
		{"?x,?y <- ?x a/b ?y", 60, false},
	} {
		ltr, rtl, err := ucrpq.TranslateBoth(ucrpq.MustParse(tc.query), "G", dict)
		if err != nil {
			t.Fatal(err)
		}
		rw := NewRewriter(tripleSchemaEnv())
		rw.MaxPlans = tc.maxPlans
		first := NewRewriter(tripleSchemaEnv())
		first.MaxPlans = tc.maxPlans
		both, ltrSpace := rw.ExploreBoth(ltr, rtl), first.Explore(ltr)
		canon := newMemo(first)
		seen := map[nodeID]bool{}
		for i, p := range both {
			id := canon.intern(p)
			if seen[id] {
				t.Fatalf("%s: plan %d is alpha-equivalent to an earlier one: %s", tc.query, i, p)
			}
			seen[id] = true
			if i < len(ltrSpace) && p.String() != ltrSpace[i].String() {
				t.Fatalf("%s: plan %d = %s, want the left-to-right plan %s", tc.query, i, p, ltrSpace[i])
			}
		}
		if grew := len(both) > len(ltrSpace); grew != tc.grows {
			t.Fatalf("%s: merged space has %d plans, left-to-right space %d", tc.query, len(both), len(ltrSpace))
		}
	}
}
