package rewrite

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rpq"
	"repro/internal/termgen"
	"repro/internal/ucrpq"
)

// naiveExplore is the exploration without the memo, kept as the oracle of
// the memoized one: a BFS over whole terms that applies and audits every
// rule at every position of every candidate, copies each candidate, checks
// it with core.Schema and deduplicates it by its alpha-invariant print.
func naiveExplore(rw *Rewriter, t core.Term) []core.Term {
	canon := newMemo(rw)
	key := func(t core.Term) string { return canon.term(canon.intern(t)).String() }
	seen := map[string]bool{key(t): true}
	plans := []core.Term{t}
	queue := []core.Term{t}
	for len(queue) > 0 && len(plans) < rw.maxPlans() {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range naiveNeighbors(rw, cur) {
			k := key(next)
			if seen[k] {
				continue
			}
			seen[k] = true
			plans = append(plans, next)
			queue = append(queue, next)
			if len(plans) >= rw.maxPlans() {
				break
			}
		}
	}
	return plans
}

func naiveNeighbors(rw *Rewriter, t core.Term) []core.Term {
	var out []core.Term
	naiveRewriteAt(rw, t, rw.Env, func(nt core.Term) {
		if _, err := core.Schema(nt, rw.Env); err != nil {
			rw.DroppedIllFormed++
			return
		}
		out = append(out, nt)
	})
	return out
}

func naiveRewriteAt(rw *Rewriter, t core.Term, env core.SchemaEnv, emit func(core.Term)) {
	for _, rule := range rw.rules {
		if rw.Disabled[rule.Name] {
			continue
		}
		for _, nt := range rule.Apply(rw, t, env) {
			if !auditWhole(rw, rule.Name, t, nt, env) {
				rw.AuditViolations++
				continue
			}
			emit(nt)
		}
	}
	ch := core.Children(t)
	if len(ch) == 0 {
		return
	}
	childEnv := env
	if fp, ok := t.(*core.Fixpoint); ok {
		cols, err := core.Schema(fp, env)
		if err != nil {
			return
		}
		childEnv = env.With(fp.X, cols)
	}
	for i, c := range ch {
		naiveRewriteAt(rw, c, childEnv, func(nc core.Term) {
			nch := make([]core.Term, len(ch))
			copy(nch, ch)
			nch[i] = nc
			emit(core.WithChildren(t, nch))
		})
	}
}

// auditWhole is the whole-term certification of a rule application that
// memo.certify replaced: out checks under env and keeps in's schema, and
// the rule's side condition held on in. The oracle's rewriter has no memo,
// so its rules and side conditions check every operand whole too.
func auditWhole(rw *Rewriter, name string, in, out core.Term, env core.SchemaEnv) bool {
	outCols, err := core.Schema(out, env)
	if err != nil {
		return false
	}
	if inCols, err := core.Schema(in, env); err == nil && !core.ColsEqual(inCols, outCols) {
		return false
	}
	return rw.sideCondition(name, in, out, env) == ""
}

// assertMemoMatchesNaive explores t with the memo and with the oracle and
// requires the same list position by position, up to bound-variable names.
func assertMemoMatchesNaive(t *testing.T, env core.SchemaEnv, term core.Term, maxPlans int) {
	t.Helper()
	rw := NewRewriter(env)
	rw.MaxPlans = maxPlans
	got := rw.Explore(term)
	oracle := NewRewriter(env)
	oracle.MaxPlans = maxPlans
	want := naiveExplore(oracle, term)
	canon := newMemo(oracle)
	if len(got) != len(want) {
		t.Fatalf("%s: memo explored %d plans, naive BFS %d", term, len(got), len(want))
	}
	for i := range got {
		if w := canon.term(canon.intern(want[i])).String(); got[i].String() != w {
			t.Fatalf("%s: plan %d differs:\n memo  %s\n naive %s", term, i, got[i], w)
		}
	}
	if rw.AuditViolations != oracle.AuditViolations || (rw.DroppedIllFormed == 0) != (oracle.DroppedIllFormed == 0) {
		t.Fatalf("%s: memo discarded %d/%d, naive %d/%d", term,
			rw.AuditViolations, rw.DroppedIllFormed, oracle.AuditViolations, oracle.DroppedIllFormed)
	}
}

// TestMemoExploreMatchesNaiveOnQueries: the random path expressions of
// TestPropertyRandomExprPlanSpaces, both translation directions.
func TestMemoExploreMatchesNaiveOnQueries(t *testing.T) {
	dict := core.NewDict()
	for _, l := range []string{"a", "b", "c"} {
		dict.Intern(l)
	}
	exprs := []string{
		"a+/b+/c+", "a/b+/c", "(a|b)+/c+", "a+/(b/c)+", "-a+/b",
		"(a/b)+/(b/c)+", "a+/b/c+",
	}
	for _, ex := range exprs {
		q := ucrpq.MustParse("?x,?y <- ?x " + ex + " ?y")
		for _, dir := range []rpq.Direction{rpq.LeftToRight, rpq.RightToLeft} {
			term, err := ucrpq.Translate(q, "G", dict, dir)
			if err != nil {
				t.Fatal(err)
			}
			assertMemoMatchesNaive(t, tripleSchemaEnv(), term, 80)
		}
	}
}

// TestMemoExploreMatchesNaiveOnFuzzCorpus: the certified random roots of
// the FuzzVerifyExplore corpus and a seed range around it.
func TestMemoExploreMatchesNaiveOnFuzzCorpus(t *testing.T) {
	seeds := []int64{1, 7, 42, 20260808, -3, 5491, 5733, 7632, 19458}
	for s := int64(0); s < 400; s++ {
		seeds = append(seeds, s)
	}
	checked := 0
	for _, seed := range seeds {
		term := termgen.Root(seed)
		if _, err := core.Schema(term, verifyEnv()); err != nil {
			continue
		}
		assertMemoMatchesNaive(t, verifyEnv(), term, 48)
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d certified roots compared", checked)
	}
}

// TestMemoRuleColumnsInBinderScope: a rule in a fixpoint's body reads the
// columns of an operand that mentions the recursion variable from the
// memo, in the binder's scope. The filter is pushed onto the recursive
// join operand, as the naive whole-term BFS pushes it.
func TestMemoRuleColumnsInBinderScope(t *testing.T) {
	step := &core.AntiProject{Cols: []string{"@m"}, T: &core.Filter{
		Cond: core.EqConst{Col: core.ColSrc, Val: 1},
		T: &core.Join{
			L: &core.Rename{From: core.ColTrg, To: "@m", T: &core.Var{Name: "X"}},
			R: &core.Rename{From: core.ColSrc, To: "@m", T: &core.Var{Name: "E"}},
		},
	}}
	fp := &core.Fixpoint{X: "X", Body: &core.Union{L: &core.Var{Name: "S"}, R: step}}
	assertMemoMatchesNaive(t, verifyEnv(), fp, 48)
	for _, p := range NewRewriter(verifyEnv()).Explore(fp) {
		if strings.Contains(p.String(), "(σ[src=1](ρ[trg→@m](µ@1)) ⋈") {
			return
		}
	}
	t.Fatal("the filter was never pushed onto the recursive join operand")
}

// TestMemoIdentifiesRenamedBinders: alpha-equivalent terms are one node,
// whatever their binder names; LR and RL closures are not.
func TestMemoIdentifiesRenamedBinders(t *testing.T) {
	m := newMemo(NewRewriter(core.SchemaEnv{"E": {core.ColSrc, core.ColTrg}}))
	a := m.intern(core.ClosureLR("X", &core.Var{Name: "E"}))
	b := m.intern(core.ClosureLR("Zq", &core.Var{Name: "E"}))
	if a != b {
		t.Fatalf("renamed closures are two nodes:\n%s\n%s", m.term(a), m.term(b))
	}
	if c := m.intern(core.ClosureRL("X", &core.Var{Name: "E"})); c == a {
		t.Fatal("the memo conflates LR and RL closures")
	}
	// A nested fixpoint binds a shorter canonical name than its parent, so
	// canonical terms never shadow a binder.
	nested := core.ClosureLR("X", core.ClosureLR("X2", &core.Var{Name: "E"}))
	n := m.term(m.intern(nested))
	if _, err := core.Schema(n, core.SchemaEnv{"E": {core.ColSrc, core.ColTrg}}); err != nil {
		t.Fatalf("canonical nested closure %s fails the check: %v", n, err)
	}
}
