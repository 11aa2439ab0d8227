package rewrite

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// randomTerm generates a random µ-RA term — deliberately including
// ill-formed shapes (unbound variables, schema clashes, captured and
// shadowed binders) — so roots of both verdicts reach the checker.
func randomTerm(rng *rand.Rand, depth int, binders []string) core.Term {
	if depth <= 0 || rng.Intn(6) == 0 {
		names := []string{"S", "E", "B", "P", "Zombie"}
		if len(binders) > 0 && rng.Intn(3) == 0 {
			return &core.Var{Name: binders[rng.Intn(len(binders))]}
		}
		if rng.Intn(8) == 0 {
			return core.NewConstTuple([]string{core.ColSrc, core.ColTrg}, []core.Value{1, 2})
		}
		return &core.Var{Name: names[rng.Intn(len(names))]}
	}
	sub := func() core.Term { return randomTerm(rng, depth-1, binders) }
	switch rng.Intn(9) {
	case 0:
		return &core.Union{L: sub(), R: sub()}
	case 1:
		return &core.Join{L: sub(), R: sub()}
	case 2:
		return &core.Antijoin{L: sub(), R: sub()}
	case 3:
		cols := []string{core.ColSrc, core.ColTrg, core.ColPred}
		return &core.Filter{Cond: core.EqConst{Col: cols[rng.Intn(len(cols))], Val: core.Value(rng.Intn(4))}, T: sub()}
	case 4:
		cols := []string{core.ColSrc, core.ColTrg, core.ColPred, "m"}
		return &core.Rename{From: cols[rng.Intn(len(cols))], To: cols[rng.Intn(len(cols))], T: sub()}
	case 5:
		cols := []string{core.ColSrc, core.ColTrg, core.ColPred}
		return &core.AntiProject{Cols: []string{cols[rng.Intn(len(cols))]}, T: sub()}
	case 6:
		return core.Compose(sub(), sub())
	default:
		// Mostly fresh binders, sometimes a colliding one to probe the
		// shadow and capture paths.
		x := []string{"X", "Y", "Z"}[rng.Intn(3)]
		inner := randomTerm(rng, depth-1, append(append([]string{}, binders...), x))
		return &core.Fixpoint{X: x, Body: &core.Union{L: sub(), R: inner}}
	}
}

// exploreRandomTerm explores the random term of seed when core.Schema
// certifies it, failing t if the rewriter discards any rule output or
// composed candidate on the way: from a certified root every sound rule
// application must yield a certified plan. It reports whether the root
// was certified.
func exploreRandomTerm(t *testing.T, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := verifyEnv()
	term := randomTerm(rng, 1+rng.Intn(3), nil)
	if _, err := core.Schema(term, env); err != nil {
		return false
	}
	rw := NewRewriter(env)
	rw.MaxPlans = 48
	rw.Explore(term)
	if rw.AuditViolations != 0 || rw.DroppedIllFormed != 0 {
		t.Fatalf("seed %d: discarded %d rule outputs and %d candidates from %s; last: %v",
			seed, rw.AuditViolations, rw.DroppedIllFormed, term, rw.LastAudit)
	}
	return true
}

// FuzzVerifyExplore explores the plan space of random certified roots,
// wired into the CI fuzz smoke next to the parser targets.
func FuzzVerifyExplore(f *testing.F) {
	// 5491, 5733, 7632 and 19458 push a join into a fixpoint whose binder
	// the pushed operand rebinds. 24287 pushes a join into a fixpoint
	// that raises its height to its enclosing binder's: its output must
	// be checked in its own bindings, not its input's.
	for _, seed := range []int64{1, 7, 42, 20260808, -3, 5491, 5733, 7632, 19458, 24287} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		exploreRandomTerm(t, seed)
	})
}

// TestExploreCertifiedSweep runs the fuzz property over a fixed seed
// range, so plain go test covers far more roots than the corpus.
func TestExploreCertifiedSweep(t *testing.T) {
	certified := 0
	for seed := int64(0); seed < 60000; seed++ {
		if exploreRandomTerm(t, seed) {
			certified++
		}
	}
	if certified < 20000 {
		t.Fatalf("only %d of 60000 random roots certified; the generator degenerated", certified)
	}
}
