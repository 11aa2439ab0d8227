package core

import (
	"errors"
	"strings"
	"testing"
)

// checkEnv is the schema env the mutation corpus is written against.
func checkEnv() SchemaEnv {
	return SchemaEnv{
		"S": {ColSrc, ColTrg},
		"E": {ColSrc, ColTrg},
		"B": {ColTrg},
		"P": {ColPred, ColSrc, ColTrg},
	}
}

// closureFP is the well-formed left-recursive closure µ(X = S ∪ X∘E).
func closureFP() *Fixpoint {
	return &Fixpoint{X: "X", Body: &Union{
		L: &Var{Name: "S"},
		R: Compose(&Var{Name: "X"}, &Var{Name: "E"}),
	}}
}

// checkDiags returns the diagnostics Schema reports for t (nil when t
// checks).
func checkDiags(t *testing.T, term Term, env SchemaEnv) []Diagnostic {
	t.Helper()
	_, err := Schema(term, env)
	if err == nil {
		return nil
	}
	var ce *CheckError
	if !errors.As(err, &ce) || len(ce.Diags) == 0 {
		t.Fatalf("Schema(%s) failed without diagnostics: %v", term, err)
	}
	return ce.Diags
}

func hasCode(diags []Diagnostic, code Code) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// TestSchemaMutations corrupts a well-formed plan in every way the
// checker classifies and asserts each mutation yields the right typed
// diagnostic.
func TestSchemaMutations(t *testing.T) {
	env := checkEnv()
	cases := []struct {
		name string
		term Term
		want Code
	}{
		{
			// A union whose operands disagree in arity.
			"union arity skew",
			&Union{L: &Var{Name: "S"}, R: &Var{Name: "B"}},
			CodeUnionSchema,
		},
		{
			"unbound relation variable",
			&Join{L: &Var{Name: "S"}, R: &Var{Name: "Zombie"}},
			CodeUnboundVar,
		},
		{
			"filter on a missing column",
			&Filter{Cond: EqConst{Col: ColPred, Val: 1}, T: &Var{Name: "S"}},
			CodeFilterColumn,
		},
		{
			"rename of a missing source column",
			&Rename{From: ColPred, To: "m", T: &Var{Name: "S"}},
			CodeRenameSource,
		},
		{
			"rename onto an existing column",
			&Rename{From: ColSrc, To: ColTrg, T: &Var{Name: "S"}},
			CodeRenameCollision,
		},
		{
			"anti-projection of a missing column",
			&AntiProject{Cols: []string{ColPred}, T: &Var{Name: "S"}},
			CodeDropColumn,
		},
		{
			// µ(X = S ∪ X⋈X): recursion variable on both join sides.
			"non-linear recursion",
			&Fixpoint{X: "X", Body: &Union{
				L: &Var{Name: "S"},
				R: &Join{L: &Var{Name: "X"}, R: &Var{Name: "X"}},
			}},
			CodeFixNonLinear,
		},
		{
			// µ(X = S ∪ (E ▷ X)): recursion variable negated.
			"non-positive recursion",
			&Fixpoint{X: "X", Body: &Union{
				L: &Var{Name: "S"},
				R: &Antijoin{L: &Var{Name: "E"}, R: &Var{Name: "X"}},
			}},
			CodeFixNonPositive,
		},
		{
			// Outer binder free inside a differently-bound inner fixpoint:
			// µ(X = S ∪ µ(Y = S ∪ Y∘X)).
			"mutual recursion",
			&Fixpoint{X: "X", Body: &Union{
				L: &Var{Name: "S"},
				R: &Fixpoint{X: "Y", Body: &Union{
					L: &Var{Name: "S"},
					R: Compose(&Var{Name: "Y"}, &Var{Name: "X"}),
				}},
			}},
			CodeFixMutual,
		},
		{
			// µ(X = X∘E): every branch mentions X, nothing seeds it.
			"no constant part",
			&Fixpoint{X: "X", Body: Compose(&Var{Name: "X"}, &Var{Name: "E"})},
			CodeFixNoConst,
		},
		{
			// µ(X = π̃trg(B) ∪ X): the seed has no columns to iterate over.
			"column-less constant part",
			&Fixpoint{X: "X", Body: &Union{
				L: &AntiProject{Cols: []string{ColTrg}, T: &Var{Name: "B"}},
				R: &Var{Name: "X"},
			}},
			CodeFixNoConst,
		},
		{
			// µ(X = S ∪ (X ⋈ P)): the recursive branch widens the schema.
			"fixpoint schema drift",
			&Fixpoint{X: "X", Body: &Union{
				L: &Var{Name: "S"},
				R: &Join{L: &Var{Name: "X"}, R: &Var{Name: "P"}},
			}},
			CodeFixSchemaDrift,
		},
		{
			// µ(X = S ∪ µ(X = S ∪ X∘E)): inner fixpoint rebinds X.
			"shadowed binder",
			&Fixpoint{X: "X", Body: &Union{
				L: &Var{Name: "S"},
				R: closureFP(),
			}},
			CodeFixShadow,
		},
		{
			// µ(X = µ(X = S ∪ X∘E) ∪ X∘E): the binder is in scope over
			// the seed branch too.
			"shadowed binder in the seed branch",
			&Fixpoint{X: "X", Body: &Union{
				L: closureFP(),
				R: Compose(&Var{Name: "X"}, &Var{Name: "E"}),
			}},
			CodeFixShadow,
		},
		{
			"constant tuple arity skew",
			&Union{
				L: &Var{Name: "S"},
				R: &ConstTuple{Cols: []string{ColSrc, ColTrg}, Vals: []Value{7}},
			},
			CodeMalformed,
		},
		{
			"nil subterm",
			&Filter{Cond: EqConst{Col: ColSrc, Val: 1}, T: nil},
			CodeMalformed,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := checkDiags(t, tc.term, env)
			if len(diags) == 0 {
				t.Fatalf("mutation not caught: %s", tc.term)
			}
			if !hasCode(diags, tc.want) {
				t.Fatalf("wrong diagnostic for %s:\n  want code %s\n  got %v", tc.term, tc.want, diags)
			}
			if _, err := Schema(tc.term, env); !strings.Contains(err.Error(), string(tc.want)) {
				t.Fatalf("error message lacks code %s: %v", tc.want, err)
			}
		})
	}
}

func TestSchemaDiagnosticPath(t *testing.T) {
	env := checkEnv()
	// Bury the defect: the unbound variable sits under filter → join.
	term := &Filter{Cond: EqConst{Col: ColSrc, Val: 1},
		T: &Join{L: &Var{Name: "S"}, R: &Var{Name: "Zombie"}}}
	diags := checkDiags(t, term, env)
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %v", diags)
	}
	if got := diags[0].Path; got != "/filter.in/join.r" {
		t.Fatalf("path = %q, want /filter.in/join.r", got)
	}
	// Fixpoint branches and the Fcond walk name their steps too.
	nonlinear := &Fixpoint{X: "X", Body: &Union{
		L: &Var{Name: "S"},
		R: &Filter{Cond: EqConst{Col: ColSrc, Val: 1}, T: &Join{L: &Var{Name: "X"}, R: &Var{Name: "X"}}},
	}}
	diags = checkDiags(t, &AntiProject{Cols: []string{ColTrg}, T: nonlinear}, env)
	if len(diags) != 1 || diags[0].Path != "/antiproject.in/fixpoint.body/union.r/filter.in" {
		t.Fatalf("want one diagnostic at /antiproject.in/fixpoint.body/union.r/filter.in, got %v", diags)
	}
	unbound := &Fixpoint{X: "X", Body: &Union{L: &Var{Name: "S"}, R: &Join{L: &Var{Name: "X"}, R: &Var{Name: "Zombie"}}}}
	diags = checkDiags(t, unbound, env)
	if len(diags) != 1 || diags[0].Path != "/fixpoint.branch[1]/join.r" {
		t.Fatalf("want one diagnostic at /fixpoint.branch[1]/join.r, got %v", diags)
	}
}

// TestSchemaCheckAllocs bounds what checking a clean closure costs: the
// checker builds no paths, env copies or branch lists on the success path.
func TestSchemaCheckAllocs(t *testing.T) {
	env := checkEnv()
	term := ClosureLR("X", &Var{Name: "E"})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Schema(term, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("checking %s cost %.0f allocs, want <= 8", term, allocs)
	}
}
