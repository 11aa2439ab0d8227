package rewrite

import (
	"testing"

	"repro/internal/core"
)

// verifyEnv is the schema env the mutation corpus is written against.
func verifyEnv() core.SchemaEnv {
	return core.SchemaEnv{
		"S": {core.ColSrc, core.ColTrg},
		"E": {core.ColSrc, core.ColTrg},
		"B": {core.ColTrg},
		"P": {core.ColPred, core.ColSrc, core.ColTrg},
	}
}

// closureFP is the well-formed left-recursive closure µ(X = S ∪ X∘E).
func closureFP() *core.Fixpoint {
	return &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
}

func hasCode(diags []core.Diagnostic, code core.Code) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
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

// TestAuditRuleRejects feeds AuditRule forged rule applications — the
// output a buggy rule would produce when its side condition is ignored —
// and asserts each is rejected with the right code.
func TestAuditRuleRejects(t *testing.T) {
	env := verifyEnv()

	t.Run("filter pushed on unstable column", func(t *testing.T) {
		// In the left-recursive closure only src is stable; pushing a trg
		// filter into the seed is unsound.
		fp := closureFP()
		in := &core.Filter{Cond: core.EqConst{Col: core.ColTrg, Val: 1}, T: fp}
		out := &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.Filter{Cond: core.EqConst{Col: core.ColTrg, Val: 1}, T: &core.Var{Name: "S"}},
			R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
		}}
		diags := AuditRule("filter-into-fixpoint", in, out, env)
		if !hasCode(diags, CodeRuleSideCond) {
			t.Fatalf("unsound filter push not rejected: %v", diags)
		}
	})

	t.Run("join pushed on unstable column", func(t *testing.T) {
		fp := closureFP()
		in := &core.Join{L: &core.Var{Name: "B"}, R: fp} // B joins on trg: unstable
		out := &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.Join{L: &core.Var{Name: "B"}, R: &core.Var{Name: "S"}},
			R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
		}}
		diags := AuditRule("join-into-fixpoint", in, out, env)
		if !hasCode(diags, CodeRuleSideCond) {
			t.Fatalf("unsound join push not rejected: %v", diags)
		}
	})

	t.Run("antiproject pushed on touched column", func(t *testing.T) {
		// µ(X = S ∪ (X ▷ E)): the antijoin consults src, so dropping src
		// in the seed changes which tuples survive — yet the pushed form
		// still typechecks, so only the side-condition audit catches it.
		fp := &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.Var{Name: "S"},
			R: &core.Antijoin{L: &core.Var{Name: "X"}, R: &core.Var{Name: "E"}},
		}}
		in := &core.AntiProject{Cols: []string{core.ColSrc}, T: fp}
		out := &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.AntiProject{Cols: []string{core.ColSrc}, T: &core.Var{Name: "S"}},
			R: &core.Antijoin{L: &core.Var{Name: "X"}, R: &core.Var{Name: "E"}},
		}}
		diags := AuditRule("antiproject-into-fixpoint", in, out, env)
		if !hasCode(diags, CodeRuleSideCond) {
			t.Fatalf("unsound anti-projection push not rejected: %v", diags)
		}
	})

	t.Run("schema-changing rewrite", func(t *testing.T) {
		in := &core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 1}, T: &core.Var{Name: "S"}}
		out := &core.AntiProject{Cols: []string{core.ColTrg}, T: &core.Var{Name: "S"}}
		diags := AuditRule("filter-merge", in, out, env)
		if !hasCode(diags, CodeRuleSchema) {
			t.Fatalf("schema change not rejected: %v", diags)
		}
	})

	t.Run("ill-formed output", func(t *testing.T) {
		in := &core.Var{Name: "S"}
		out := &core.Join{L: &core.Var{Name: "S"}, R: &core.Var{Name: "Zombie"}}
		diags := AuditRule("compose-assoc", in, out, env)
		if !hasCode(diags, core.CodeUnboundVar) {
			t.Fatalf("ill-formed output not rejected: %v", diags)
		}
	})

	t.Run("legitimate application passes", func(t *testing.T) {
		fp := closureFP()
		in := &core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 1}, T: fp}
		rw := NewRewriter(env)
		outs := ruleFilterIntoFixpoint(rw, in, env)
		if len(outs) == 0 {
			t.Fatal("rule did not fire")
		}
		for _, out := range outs {
			if diags := AuditRule("filter-into-fixpoint", in, out, env); len(diags) != 0 {
				t.Fatalf("legitimate application rejected: %v", diags)
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
