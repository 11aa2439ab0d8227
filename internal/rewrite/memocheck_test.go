package rewrite

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/termgen"
)

// The memo's checker (memo.check, checkNode, checkFixpoint, fcond) re-states
// core.Schema's typing rules over interned nodes so that exploration checks
// each subterm once; routing it through core.Schema instead costs the
// optimizer about a quarter more time per pass. These tests pin the two
// checkers to each other: on every node of a term, the memo's verdict and
// columns must be core.Schema's on that node's representative term.

// schemaCorruptions are the corruptions of core's TestSchemaMutations, one
// per diagnostic the checker classifies, plus the well-formed plan they
// corrupt.
func schemaCorruptions() map[string]core.Term {
	x, s, e := &core.Var{Name: "X"}, &core.Var{Name: "S"}, &core.Var{Name: "E"}
	return map[string]core.Term{
		"well-formed closure":    closureFP(),
		"union arity skew":       &core.Union{L: s, R: &core.Var{Name: "B"}},
		"unbound variable":       &core.Join{L: s, R: &core.Var{Name: "Zombie"}},
		"filter column":          &core.Filter{Cond: core.EqConst{Col: core.ColPred, Val: 1}, T: s},
		"rename source":          &core.Rename{From: core.ColPred, To: "m", T: s},
		"rename collision":       &core.Rename{From: core.ColSrc, To: core.ColTrg, T: s},
		"anti-projection column": &core.AntiProject{Cols: []string{core.ColPred}, T: s},
		"non-linear recursion": &core.Fixpoint{X: "X", Body: &core.Union{
			L: s, R: &core.Join{L: x, R: x}}},
		"non-positive recursion": &core.Fixpoint{X: "X", Body: &core.Union{
			L: s, R: &core.Antijoin{L: e, R: x}}},
		"mutual recursion": &core.Fixpoint{X: "X", Body: &core.Union{
			L: s, R: &core.Fixpoint{X: "Y", Body: &core.Union{
				L: s, R: core.Compose(&core.Var{Name: "Y"}, x)}}}},
		"no constant part": &core.Fixpoint{X: "X", Body: core.Compose(x, e)},
		"column-less constant part": &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.AntiProject{Cols: []string{core.ColTrg}, T: &core.Var{Name: "B"}}, R: x}},
		"schema drift": &core.Fixpoint{X: "X", Body: &core.Union{
			L: s, R: &core.Join{L: x, R: &core.Var{Name: "P"}}}},
		"shadowed binder": &core.Fixpoint{X: "X", Body: &core.Union{L: s, R: closureFP()}},
		"shadowed binder in the seed branch": &core.Fixpoint{X: "X", Body: &core.Union{
			L: closureFP(), R: core.Compose(x, e)}},
		"constant tuple arity skew": &core.Union{L: s,
			R: &core.ConstTuple{Cols: []string{core.ColSrc, core.ColTrg}, Vals: []core.Value{7}}},
		"nil subterm": &core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 1}, T: nil},
	}
}

// compareCheckers interns t and compares the two checkers' verdicts on
// every node of its memo, each at the top level (no enclosing binder). It
// reports false when the memo does not accept t at all (intern panics on
// a malformed term, such as a nil subterm, that core.Schema reports).
func compareCheckers(t *testing.T, name string, env core.SchemaEnv, term core.Term) (interned bool) {
	t.Helper()
	m := newMemo(NewRewriter(env))
	defer func() {
		if recover() != nil {
			interned = false
		}
	}()
	m.intern(term)
	for id := range m.nodes {
		rep := m.term(nodeID(id))
		cols, ok := m.check(nodeID(id), nil)
		want, err := core.Schema(rep, env)
		if ok != (err == nil) || ok && !core.ColsEqual(cols, want) {
			t.Errorf("%s: node %s: memo says (%v, %v), core.Schema (%v, %v)", name, rep, cols, ok, want, err)
		}
	}
	return true
}

// TestMemoCheckMatchesSchemaOnCorruptions: every corruption the memo
// interns gets core.Schema's verdict at every node. Only the malformed
// terms (core.CodeMalformed), which no translator or rule builds, may be
// refused by intern itself.
func TestMemoCheckMatchesSchemaOnCorruptions(t *testing.T) {
	malformed := map[string]bool{"nil subterm": true, "constant tuple arity skew": true}
	for name, term := range schemaCorruptions() {
		if !compareCheckers(t, name, verifyEnv(), term) && !malformed[name] {
			t.Errorf("%s: the memo does not intern %s", name, term)
		}
	}
}

// TestMemoCheckMatchesSchemaOnFuzzRoots: the roots FuzzVerifyExplore's
// generator draws, ill-formed ones included, over its corpus and a seed
// range.
func TestMemoCheckMatchesSchemaOnFuzzRoots(t *testing.T) {
	seeds := []int64{1, 7, 42, 20260808, -3, 5491, 5733, 7632, 19458}
	for s := int64(0); s < 3000; s++ {
		seeds = append(seeds, s)
	}
	rejected := 0
	for _, seed := range seeds {
		term := termgen.Root(seed)
		if _, err := core.Schema(term, verifyEnv()); err != nil {
			rejected++
		}
		compareCheckers(t, fmt.Sprintf("seed %d", seed), verifyEnv(), term)
	}
	if rejected == 0 || rejected == len(seeds) {
		t.Fatalf("%d of %d roots rejected: the generator lost one verdict", rejected, len(seeds))
	}
}
