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
// it cannot be distributed out soundly).
func normalizeBranches(t Term) []Term {
	switch n := t.(type) {
	case *Union:
		return append(normalizeBranches(n.L), normalizeBranches(n.R)...)
	case *Filter:
		return wrapBranches(normalizeBranches(n.T), func(b Term) Term {
			return &Filter{Cond: n.Cond, T: b}
		})
	case *Rename:
		return wrapBranches(normalizeBranches(n.T), func(b Term) Term {
			return &Rename{From: n.From, To: n.To, T: b}
		})
	case *AntiProject:
		return wrapBranches(normalizeBranches(n.T), func(b Term) Term {
			return &AntiProject{Cols: n.Cols, T: b}
		})
	case *Join:
		lb := normalizeBranches(n.L)
		rb := normalizeBranches(n.R)
		out := make([]Term, 0, len(lb)*len(rb))
		for _, l := range lb {
			for _, r := range rb {
				out = append(out, &Join{L: l, R: r})
			}
		}
		return out
	case *Antijoin:
		return wrapBranches(normalizeBranches(n.L), func(b Term) Term {
			return &Antijoin{L: b, R: n.R}
		})
	default:
		return []Term{t}
	}
}

func wrapBranches(branches []Term, wrap func(Term) Term) []Term {
	out := make([]Term, len(branches))
	for i, b := range branches {
		out[i] = wrap(b)
	}
	return out
}
