package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rewrite"
	"repro/internal/termgen"
	"repro/internal/ucrpq"
)

// termEqualSpaces returns plan spaces to compare terms across: the three
// path queries of the cost package's memoPlanSpace, explored in both
// translation directions, and the space of every certified root of the
// rewriter's FuzzVerifyExplore corpus; and filters under nested
// conditions.
func termEqualSpaces(t *testing.T) [][]core.Term {
	t.Helper()
	dict := core.NewDict()
	for _, l := range []string{"a", "b", "c"} {
		dict.Intern(l)
	}
	env := core.SchemaEnv{"G": core.SortCols([]string{core.ColSrc, core.ColPred, core.ColTrg})}
	var spaces [][]core.Term
	for _, q := range []string{"?x,?y <- ?x a+/b+/c+ ?y", "?x <- ?x (a|b)+/c+ ?x", "?x,?y <- ?x a/(b/c)+ ?y"} {
		ltr, rtl, err := ucrpq.TranslateBoth(ucrpq.MustParse(q), "G", dict)
		if err != nil {
			t.Fatal(err)
		}
		rw := rewrite.NewRewriter(env)
		rw.MaxPlans = 512
		spaces = append(spaces, rw.ExploreBoth(ltr, rtl))
	}
	// Conjunctions print flat, so both groupings of a nested one print
	// alike; the rewriter's memo keys filters by their printed condition,
	// so its spaces hold one grouping only.
	e := &core.Var{Name: "E"}
	a, b, c := core.EqConst{Col: core.ColSrc, Val: 1}, core.EqCols{A: core.ColSrc, B: core.ColTrg}, core.NeConst{Col: core.ColTrg, Val: 3}
	var conds []core.Term
	for _, cond := range []core.Condition{
		core.And{core.And{a, b}, c}, core.And{a, core.And{b, c}}, core.And{a, b, c},
		core.And{a, b}, core.Or{a, b}, core.Or{core.And{a, b}}, a, b, c,
	} {
		conds = append(conds, &core.Filter{Cond: cond, T: e})
	}
	spaces = append(spaces, conds)
	for _, seed := range termgen.Corpus {
		root := termgen.Root(seed)
		if _, err := core.Schema(root, termgen.Env()); err != nil {
			continue
		}
		rw := rewrite.NewRewriter(termgen.Env())
		rw.MaxPlans = 48
		spaces = append(spaces, rw.Explore(root))
	}
	return spaces
}

// copyTerm rebuilds every node of t: an equal term sharing no pointer.
func copyTerm(t core.Term) core.Term {
	return core.Rewrite(t, func(s core.Term) core.Term {
		switch n := s.(type) {
		case *core.Var:
			return &core.Var{Name: n.Name}
		case *core.ConstTuple:
			return core.NewConstTuple(n.Cols, n.Vals)
		}
		return core.WithChildren(s, core.Children(s))
	})
}

// alphaVariant renames the binder of every fixpoint of t.
func alphaVariant(t core.Term) core.Term {
	return core.Rewrite(t, func(s core.Term) core.Term {
		fp, ok := s.(*core.Fixpoint)
		if !ok {
			return s
		}
		x := fp.X + "'"
		return &core.Fixpoint{X: x, Body: core.Substitute(fp.Body, fp.X, &core.Var{Name: x})}
	})
}

// TestTermEqualMatchesString: the structural TermEqual agrees with
// comparing printed terms on every pair of plans of each space, each
// plan's node-by-node copy and each alpha variant of a plan with a
// fixpoint, which stays unequal to the plan.
func TestTermEqualMatchesString(t *testing.T) {
	pairs, variants := 0, 0
	for _, plans := range termEqualSpaces(t) {
		terms := append([]core.Term(nil), plans...)
		for _, p := range plans {
			terms = append(terms, copyTerm(p))
			if v := alphaVariant(p); v != p {
				if core.TermEqual(p, v) {
					t.Fatalf("alpha variants are equal:\n%s\n%s", p, v)
				}
				terms = append(terms, v)
				variants++
			}
		}
		printed := make([]string, len(terms))
		for i, x := range terms {
			printed[i] = x.String()
		}
		for i, a := range terms {
			for j, b := range terms {
				if got, want := core.TermEqual(a, b), printed[i] == printed[j]; got != want {
					t.Fatalf("TermEqual = %v, printed equal = %v:\n%s\n%s", got, want, a, b)
				}
			}
		}
		pairs += len(terms) * len(terms)
	}
	if variants == 0 {
		t.Fatal("no plan had a fixpoint to rename")
	}
	t.Logf("%d pairs, %d alpha variants", pairs, variants)
}
