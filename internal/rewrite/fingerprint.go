package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// This file computes canonical fingerprints for µ-RA terms, the key of the
// engine's multi-query sub-result cache. The operator label (opLabel) is
// shared with the optimizer memo's node key; a fingerprint adds two kinds
// of stability the memo does not want:
//
//   - stability under operand reordering: the rewriter emits ((A∪B)∪C) and
//     (A∪(C∪B)) as distinct plans (join operand order picks the build
//     side), but as cache keys they must coincide — union and natural join
//     are associative and commutative, so operand lists are flattened and
//     sorted before printing;
//   - stability under bound-variable renaming for any input, not only the
//     memo's canonical terms: fingerprints alias each bound variable by its
//     binder depth (two binders at one depth have disjoint scopes, so the
//     shared alias cannot collide).
//
// Free (database) variables are printed with a "$" prefix so a free "µ1"
// can never be confused with a bound alias. Equal fingerprints therefore
// imply alpha-equivalence modulo commutative/associative reordering, which
// implies semantic equality on every database — the soundness direction
// the cache needs. (The converse is not claimed: semantically equal terms
// may fingerprint differently; they merely miss the cache.)

// Fingerprint returns the canonical cache key of t.
func Fingerprint(t core.Term) string {
	return canonTerm(t, nil, 0)
}

// opLabel renders the operator of t with its parameters: everything that
// identifies a node except its operands. A variable's label is its name
// behind a "$", and a fixpoint's names its binder.
func opLabel(t core.Term) string {
	switch n := t.(type) {
	case *core.Var:
		return "$" + n.Name
	case *core.Union:
		return "∪"
	case *core.Join:
		return "⋈"
	case *core.Antijoin:
		return "▷"
	case *core.Filter:
		return "σ[" + n.Cond.String() + "]"
	case *core.Rename:
		return "ρ[" + n.From + ">" + n.To + "]"
	case *core.AntiProject:
		return "π[" + strings.Join(n.Cols, ",") + "]"
	case *core.Fixpoint:
		return "µ(" + n.X + ")"
	default:
		return t.String()
	}
}

func canonTerm(t core.Term, bound map[string]string, depth int) string {
	switch n := t.(type) {
	case *core.Var:
		if a, ok := bound[n.Name]; ok {
			return a
		}
		return opLabel(n)
	case *core.Union:
		var ops []string
		flattenCanon(t, isUnion, bound, depth, &ops)
		sort.Strings(ops)
		return "(" + strings.Join(ops, opLabel(n)) + ")"
	case *core.Join:
		var ops []string
		flattenCanon(t, isJoin, bound, depth, &ops)
		sort.Strings(ops)
		return "(" + strings.Join(ops, opLabel(n)) + ")"
	case *core.Antijoin:
		return "(" + canonTerm(n.L, bound, depth) + opLabel(n) + canonTerm(n.R, bound, depth) + ")"
	case *core.Fixpoint:
		alias := fmt.Sprintf("µ@%d", depth)
		nb := make(map[string]string, len(bound)+1)
		for k, v := range bound {
			nb[k] = v
		}
		nb[n.X] = alias
		return "µ(" + alias + "=" + canonTerm(n.Body, nb, depth+1) + ")"
	case *core.Filter, *core.Rename, *core.AntiProject:
		return opLabel(t) + "(" + canonTerm(core.Children(t)[0], bound, depth) + ")"
	default:
		return opLabel(t)
	}
}

func isUnion(t core.Term) (core.Term, core.Term, bool) {
	if u, ok := t.(*core.Union); ok {
		return u.L, u.R, true
	}
	return nil, nil, false
}

func isJoin(t core.Term) (core.Term, core.Term, bool) {
	if j, ok := t.(*core.Join); ok {
		return j.L, j.R, true
	}
	return nil, nil, false
}

// flattenCanon appends the canonical forms of t's maximal non-op subterms,
// flattening nested applications of the same associative operator.
func flattenCanon(t core.Term, split func(core.Term) (core.Term, core.Term, bool), bound map[string]string, depth int, out *[]string) {
	if l, r, ok := split(t); ok {
		flattenCanon(l, split, bound, depth, out)
		flattenCanon(r, split, bound, depth, out)
		return
	}
	*out = append(*out, canonTerm(t, bound, depth))
}

// PredFootprint over-approximates which predicates of the triple relation
// rel a term reads. It returns (preds, true) when every reachable
// occurrence of rel sits under a filter that provably pins the predicate
// column — the UCRPQ translator's EdgeRel shape σ[pred=v](rel), possibly
// with extra conjuncts or a disjunction of pinned alternatives — and
// (nil, false) otherwise, meaning the term must be treated as reading every
// predicate (wildcard). Conjunction is sound because extra conjuncts only
// shrink the rows read; any occurrence the analysis does not recognize
// falls back to the wildcard, never to an under-approximation.
func PredFootprint(t core.Term, rel string) ([]core.Value, bool) {
	seen := map[core.Value]bool{}
	if !footprintVisit(t, rel, seen) {
		return nil, false
	}
	out := make([]core.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

func footprintVisit(t core.Term, rel string, seen map[core.Value]bool) bool {
	switch n := t.(type) {
	case *core.Var:
		// A bare occurrence of the triple relation reads every predicate.
		return n.Name != rel
	case *core.Filter:
		if v, ok := n.T.(*core.Var); ok && v.Name == rel {
			vals, ok := predEqVals(n.Cond)
			if !ok {
				return false
			}
			for _, val := range vals {
				seen[val] = true
			}
			return true
		}
		return footprintVisit(n.T, rel, seen)
	case *core.Fixpoint:
		if n.X == rel {
			// The recursion variable shadows the triple relation; rather
			// than track scoping, conservatively go wildcard.
			return false
		}
	}
	for _, c := range core.Children(t) {
		if !footprintVisit(c, rel, seen) {
			return false
		}
	}
	return true
}

// predEqVals extracts the set of values the condition pins the predicate
// column to: EqConst on ColPred yields that value, a conjunction yields any
// conjunct's pin (the others only filter further), a disjunction yields the
// union only if every disjunct is pinned.
func predEqVals(c core.Condition) ([]core.Value, bool) {
	switch n := c.(type) {
	case core.EqConst:
		if n.Col == core.ColPred {
			return []core.Value{n.Val}, true
		}
	case core.And:
		for _, sub := range n {
			if vals, ok := predEqVals(sub); ok {
				return vals, true
			}
		}
	case core.Or:
		var all []core.Value
		for _, sub := range n {
			vals, ok := predEqVals(sub)
			if !ok {
				return nil, false
			}
			all = append(all, vals...)
		}
		if len(n) > 0 {
			return all, true
		}
	}
	return nil, false
}
