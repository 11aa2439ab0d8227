package core

import "fmt"

// Decomposed is a fixpoint in the decomposed form µ(X = R ∪ φ) of
// Proposition 2: Const is the union of the body's branches that are
// constant in X (the constant part R), and PhiBranches are the normalized
// branches containing X (whose union is the variable part φ, which
// satisfies φ(∅) = ∅).
type Decomposed struct {
	X           string
	Const       Term   // R: the constant part (never nil)
	PhiBranches []Term // branches of φ, each containing X; may be empty
}

// Fixpoint reassembles the decomposed term µ(X = R ∪ φ).
func (d *Decomposed) Fixpoint() *Fixpoint {
	branches := append([]Term{d.Const}, d.PhiBranches...)
	return &Fixpoint{X: d.X, Body: UnionOf(branches)}
}

// Decompose checks Fcond and rewrites the body of fp into the decomposed
// form µ(X = R ∪ φ) by distributing filters, renames, anti-projections,
// joins and antijoins over unions until all unions sit at the top, then
// partitioning the branches into those constant in X (R) and those
// containing X (φ). Every returned φ branch is strict in X — substituting
// the empty relation for X makes the branch empty — which Proposition 2
// requires.
func Decompose(fp *Fixpoint) (*Decomposed, error) {
	if err := CheckFcond(fp); err != nil {
		return nil, err
	}
	branches := normalizeBranches(fp.Body)
	d := &Decomposed{X: fp.X}
	var constBranches []Term
	for _, br := range branches {
		if ContainsVar(br, fp.X) {
			d.PhiBranches = append(d.PhiBranches, br)
		} else {
			constBranches = append(constBranches, br)
		}
	}
	if len(constBranches) == 0 {
		return nil, fmt.Errorf("core: fixpoint %s has no constant part (would be empty or undefined)", fp)
	}
	d.Const = UnionOf(constBranches)
	return d, nil
}

// normalizeBranches pulls unions to the top of a term by distributing the
// unary operators and joins over them, returning the flattened branch list:
//
//	σ(a ∪ b)     → σ(a) ∪ σ(b)        ρ, π̃ likewise
//	(a ∪ b) ⋈ c  → (a ⋈ c) ∪ (b ⋈ c)   and symmetrically
//	(a ∪ b) ▷ c  → (a ▷ c) ∪ (b ▷ c)
//
// Antijoin right operands and nested fixpoints are treated as leaves
// (the right operand of ▷ is constant in X by positivity, and unions inside
// it cannot be distributed out soundly). A subterm no union is distributed
// out of is its own only branch, so callers that intern or memoize terms by
// pointer see their own subterms again.
func normalizeBranches(t Term) []Term { return appendNormalized(nil, t) }

// appendNormalized appends the branches of t to dst. A node is rebuilt
// only when some child's branch list is not exactly that child.
func appendNormalized(dst []Term, t Term) []Term {
	start := len(dst)
	switch n := t.(type) {
	case *Union:
		return appendNormalized(appendNormalized(dst, n.L), n.R)
	case *Filter:
		return rewrap(appendNormalized(dst, n.T), start, n.T, t, func(b Term) Term {
			return &Filter{Cond: n.Cond, T: b}
		})
	case *Rename:
		return rewrap(appendNormalized(dst, n.T), start, n.T, t, func(b Term) Term {
			return &Rename{From: n.From, To: n.To, T: b}
		})
	case *AntiProject:
		return rewrap(appendNormalized(dst, n.T), start, n.T, t, func(b Term) Term {
			return &AntiProject{Cols: n.Cols, T: b}
		})
	case *Antijoin:
		return rewrap(appendNormalized(dst, n.L), start, n.L, t, func(b Term) Term {
			return &Antijoin{L: b, R: n.R}
		})
	case *Join:
		dst = appendNormalized(dst, n.L)
		mid := len(dst)
		dst = appendNormalized(dst, n.R)
		if mid-start == 1 && len(dst)-mid == 1 && dst[start] == n.L && dst[mid] == n.R {
			return append(dst[:start], t)
		}
		lb := append([]Term(nil), dst[start:mid]...)
		rb := append([]Term(nil), dst[mid:]...)
		dst = dst[:start]
		for _, l := range lb {
			for _, r := range rb {
				dst = append(dst, &Join{L: l, R: r})
			}
		}
		return dst
	default:
		return append(dst, t)
	}
}

// rewrap finishes a unary node t over child, whose branches are
// dst[start:]: t itself when child is its own only branch, and otherwise
// wrap of each branch.
func rewrap(dst []Term, start int, child, t Term, wrap func(Term) Term) []Term {
	if len(dst)-start == 1 && dst[start] == child {
		dst[start] = t
		return dst
	}
	for i := start; i < len(dst); i++ {
		dst[i] = wrap(dst[i])
	}
	return dst
}
