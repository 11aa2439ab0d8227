package rewrite

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/termgen"
)

// verifyEnv is the schema env the mutation corpus and the random terms
// are written against.
func verifyEnv() core.SchemaEnv { return termgen.Env() }

// closureFP is the well-formed left-recursive closure µ(X = S ∪ X∘E).
func closureFP() *core.Fixpoint {
	return &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	env := verifyEnv()
	terms := []core.Term{
		&core.Var{Name: "S"},
		core.NewConstTuple([]string{core.ColTrg, core.ColSrc}, []core.Value{1, 2}),
		closureFP(),
		&core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 3}, T: closureFP()},
		&core.Join{L: &core.Var{Name: "B"}, R: closureFP()},
		core.Compose(closureFP(), closureFP()),
		&core.Antijoin{L: &core.Var{Name: "S"}, R: &core.Var{Name: "E"}},
	}
	for _, tm := range terms {
		if err := VerifyErr(tm, env); err != nil {
			t.Errorf("VerifyErr on well-formed term: %v", err)
		}
	}
}

// forgeRule explores in with a rule set of one rule, named rule, that
// proposes out at the root and nothing else, so the forged application
// goes through the memo's certification like any rule's.
func forgeRule(env core.SchemaEnv, rule string, in, out core.Term) *Rewriter {
	rw := NewRewriter(env)
	fired := false
	rw.rules = []Rule{{Name: rule, Apply: func(*Rewriter, core.Term, core.SchemaEnv) []core.Term {
		if fired {
			return nil
		}
		fired = true
		return []core.Term{out}
	}}}
	rw.Explore(in)
	return rw
}

// TestAuditRuleRejects feeds the memo's certification forged rule
// applications — the output a buggy rule would produce when its side
// condition is ignored — and asserts each is rejected with the right
// code, and that LastAudit names the rule, the input and the output.
func TestAuditRuleRejects(t *testing.T) {
	env := verifyEnv()
	rejects := func(t *testing.T, rule string, in, out core.Term, code core.Code) {
		t.Helper()
		rw := forgeRule(env, rule, in, out)
		if rw.AuditViolations != 1 || len(rw.LastAudit) != 1 {
			t.Fatalf("forged %s application not rejected: %d violations, %v", rule, rw.AuditViolations, rw.LastAudit)
		}
		d := rw.LastAudit[0]
		if d.Code != code {
			t.Errorf("rejected with %s, want %s: %v", d.Code, code, d)
		}
		m := rw.memo()
		inStr, outStr := m.term(m.intern(in)).String(), m.term(m.intern(out)).String()
		if d.Term != inStr || !strings.Contains(d.Detail, rule) || !strings.Contains(d.Detail, outStr) {
			t.Errorf("diagnostic %v does not name rule %s, input %s and output %s", d, rule, inStr, outStr)
		}
	}

	t.Run("filter pushed on unstable column", func(t *testing.T) {
		// In the left-recursive closure only src is stable; pushing a trg
		// filter into the seed is unsound.
		fp := closureFP()
		in := &core.Filter{Cond: core.EqConst{Col: core.ColTrg, Val: 1}, T: fp}
		out := &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.Filter{Cond: core.EqConst{Col: core.ColTrg, Val: 1}, T: &core.Var{Name: "S"}},
			R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
		}}
		rejects(t, "filter-into-fixpoint", in, out, CodeRuleSideCond)
	})

	t.Run("join pushed on unstable column", func(t *testing.T) {
		fp := closureFP()
		in := &core.Join{L: &core.Var{Name: "B"}, R: fp} // B joins on trg: unstable
		out := &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.Join{L: &core.Var{Name: "B"}, R: &core.Var{Name: "S"}},
			R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
		}}
		rejects(t, "join-into-fixpoint", in, out, CodeRuleSideCond)
	})

	t.Run("antiproject pushed on touched column", func(t *testing.T) {
		// µ(X = S ∪ (X ▷ E)): the antijoin consults src, so dropping src
		// in the seed changes which tuples survive — yet the pushed form
		// still typechecks, so only the side condition catches it.
		fp := &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.Var{Name: "S"},
			R: &core.Antijoin{L: &core.Var{Name: "X"}, R: &core.Var{Name: "E"}},
		}}
		in := &core.AntiProject{Cols: []string{core.ColSrc}, T: fp}
		out := &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.AntiProject{Cols: []string{core.ColSrc}, T: &core.Var{Name: "S"}},
			R: &core.Antijoin{L: &core.Var{Name: "X"}, R: &core.Var{Name: "E"}},
		}}
		rejects(t, "antiproject-into-fixpoint", in, out, CodeRuleSideCond)
	})

	t.Run("schema-changing rewrite", func(t *testing.T) {
		in := &core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 1}, T: &core.Var{Name: "S"}}
		out := &core.AntiProject{Cols: []string{core.ColTrg}, T: &core.Var{Name: "S"}}
		rejects(t, "filter-merge", in, out, CodeRuleSchema)
	})

	t.Run("ill-formed output", func(t *testing.T) {
		in := &core.Var{Name: "S"}
		out := &core.Join{L: &core.Var{Name: "S"}, R: &core.Var{Name: "Zombie"}}
		rejects(t, "compose-assoc", in, out, CodeRuleOutput)
	})

	t.Run("legitimate application passes", func(t *testing.T) {
		fp := closureFP()
		in := &core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 1}, T: fp}
		outs := ruleFilterIntoFixpoint(NewRewriter(env), in, env)
		if len(outs) == 0 {
			t.Fatal("rule did not fire")
		}
		for _, out := range outs {
			rw := forgeRule(env, "filter-into-fixpoint", in, out)
			if rw.AuditViolations != 0 {
				t.Fatalf("legitimate application rejected: %v", rw.LastAudit)
			}
		}
	})
}

// TestExplorePlansAllVerify explores the full rule set from
// representative roots and asserts every emitted plan checks clean and
// no candidate was discarded.
func TestExplorePlansAllVerify(t *testing.T) {
	env := verifyEnv()
	// eClosure is E+ in the shape reverse-closure and the composition
	// folds recognize, so these roots produce rich plan spaces.
	eClosure := func() core.Term {
		return &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.Var{Name: "E"},
			R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
		}}
	}
	roots := []core.Term{
		&core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 3}, T: eClosure()},
		&core.Join{L: &core.Var{Name: "S"}, R: eClosure()},
		core.Compose(eClosure(), eClosure()),
		&core.AntiProject{Cols: []string{core.ColTrg}, T: closureFP()},
	}
	totalPlans := 0
	for _, root := range roots {
		rw := NewRewriter(env)
		rw.MaxPlans = 512
		plans := rw.Explore(root)
		totalPlans += len(plans)
		for _, p := range plans {
			if _, err := core.Schema(p, env); err != nil {
				t.Errorf("explored plan fails the check:\n  %s\n  %v", p, err)
			}
		}
		if rw.AuditViolations != 0 || rw.DroppedIllFormed != 0 {
			t.Errorf("discarded %d rule outputs and %d candidates from %s; last: %v",
				rw.AuditViolations, rw.DroppedIllFormed, root, rw.LastAudit)
		}
	}
	if totalPlans < len(roots)+4 {
		t.Fatalf("exploration degenerate: %d plans across %d roots", totalPlans, len(roots))
	}
}
