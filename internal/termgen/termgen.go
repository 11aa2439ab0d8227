// Package termgen generates random µ-RA terms over a small fixed schema,
// for the property tests and fuzz targets of the checker, the rewriter
// and the term utilities. A seed names one term, so a failing seed can
// be replayed in any of them.
package termgen

import (
	"math/rand"

	"repro/internal/core"
)

// Corpus is the seed corpus of the rewriter's FuzzVerifyExplore. 5491,
// 5733, 7632 and 19458 push a join into a fixpoint whose binder the
// pushed operand rebinds. 24287 pushes a join into a fixpoint that raises
// its height to its enclosing binder's: its output must be checked in its
// own bindings, not its input's.
var Corpus = []int64{1, 7, 42, 20260808, -3, 5491, 5733, 7632, 19458, 24287}

// Env is the schema of the relations random terms name (Zombie is
// deliberately unbound).
func Env() core.SchemaEnv {
	return core.SchemaEnv{
		"S": {core.ColSrc, core.ColTrg},
		"E": {core.ColSrc, core.ColTrg},
		"B": {core.ColTrg},
		"P": {core.ColPred, core.ColSrc, core.ColTrg},
	}
}

// Root is the random term of seed: depth 1 to 3, no enclosing binders.
func Root(seed int64) core.Term {
	rng := rand.New(rand.NewSource(seed))
	return random(rng, 1+rng.Intn(3), nil)
}

// random generates a random µ-RA term — deliberately including
// ill-formed shapes (unbound variables, schema clashes, captured and
// shadowed binders) — so roots of both verdicts reach the checker.
func random(rng *rand.Rand, depth int, binders []string) core.Term {
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
	sub := func() core.Term { return random(rng, depth-1, binders) }
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
		inner := random(rng, depth-1, append(append([]string{}, binders...), x))
		return &core.Fixpoint{X: x, Body: &core.Union{L: sub(), R: inner}}
	}
}
