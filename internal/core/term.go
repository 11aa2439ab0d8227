package core

import (
	"fmt"
	"sort"
	"strings"
)

// Term is a µ-RA algebraic term, following the grammar of Fig. 1 of the
// paper:
//
//	φ ::= X                relation variable (database or recursion variable)
//	    | {c→v}            constant tuple
//	    | φ1 ∪ φ2          union
//	    | φ1 ⋈ φ2          natural join
//	    | φ1 ▷ φ2          antijoin
//	    | σf(φ)            filtering
//	    | ρb_a(φ)          renaming (column a becomes b)
//	    | π̃a(φ)            anti-projection (column a is dropped)
//	    | µ(X = Ψ)         fixpoint
//
// Terms are immutable; rewrites build new terms sharing subterms.
type Term interface {
	fmt.Stringer
	// children returns the direct subterms in a fixed order.
	children() []Term
	// withChildren rebuilds the node with replaced subterms (same arity).
	withChildren(ch []Term) Term
}

// Var references a relation by name: either a free database variable
// (resolved against an Env) or a fixpoint's recursion variable.
type Var struct{ Name string }

// ConstTuple is the constant term {c1→v1, ..., ck→vk}: a singleton relation
// holding exactly one tuple.
type ConstTuple struct {
	Cols []string // sorted
	Vals []Value  // aligned with Cols
}

// NewConstTuple builds a ConstTuple from possibly unsorted column/value
// pairs.
func NewConstTuple(cols []string, vals []Value) *ConstTuple {
	if len(cols) != len(vals) {
		panic("core: NewConstTuple arity mismatch")
	}
	type cv struct {
		c string
		v Value
	}
	pairs := make([]cv, len(cols))
	for i := range cols {
		pairs[i] = cv{cols[i], vals[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].c < pairs[j].c })
	sc := make([]string, len(pairs))
	sv := make([]Value, len(pairs))
	for i, p := range pairs {
		sc[i], sv[i] = p.c, p.v
	}
	return &ConstTuple{Cols: sc, Vals: sv}
}

// Union is φ1 ∪ φ2 (set union; schemas must agree).
type Union struct{ L, R Term }

// Join is the natural join φ1 ⋈ φ2.
type Join struct{ L, R Term }

// Antijoin is φ1 ▷ φ2: tuples of φ1 joining with no tuple of φ2.
type Antijoin struct{ L, R Term }

// Filter is σf(φ).
type Filter struct {
	Cond Condition
	T    Term
}

// Rename is ρ^To_From(φ): column From is renamed to To.
type Rename struct {
	From, To string
	T        Term
}

// AntiProject is π̃(φ): the listed columns are dropped.
type AntiProject struct {
	Cols []string // sorted
	T    Term
}

// NewAntiProject builds an AntiProject with a sorted copy of cols.
func NewAntiProject(t Term, cols ...string) *AntiProject {
	return &AntiProject{Cols: SortCols(cols), T: t}
}

// Fixpoint is µ(X = Body). X is bound inside Body.
type Fixpoint struct {
	X    string
	Body Term
}

func (t *Var) String() string { return t.Name }
func (t *ConstTuple) String() string {
	parts := make([]string, len(t.Cols))
	for i := range t.Cols {
		parts[i] = fmt.Sprintf("%s→%d", t.Cols[i], t.Vals[i])
	}
	return "{" + strings.Join(parts, ",") + "}"
}
func (t *Union) String() string    { return "(" + t.L.String() + " ∪ " + t.R.String() + ")" }
func (t *Join) String() string     { return "(" + t.L.String() + " ⋈ " + t.R.String() + ")" }
func (t *Antijoin) String() string { return "(" + t.L.String() + " ▷ " + t.R.String() + ")" }
func (t *Filter) String() string   { return "σ[" + t.Cond.String() + "](" + t.T.String() + ")" }
func (t *Rename) String() string {
	return "ρ[" + t.From + "→" + t.To + "](" + t.T.String() + ")"
}
func (t *AntiProject) String() string {
	return "π̃[" + strings.Join(t.Cols, ",") + "](" + t.T.String() + ")"
}
func (t *Fixpoint) String() string { return "µ(" + t.X + " = " + t.Body.String() + ")" }

func (t *Var) children() []Term        { return nil }
func (t *ConstTuple) children() []Term { return nil }
func (t *Union) children() []Term      { return []Term{t.L, t.R} }
func (t *Join) children() []Term       { return []Term{t.L, t.R} }
func (t *Antijoin) children() []Term   { return []Term{t.L, t.R} }
func (t *Filter) children() []Term     { return []Term{t.T} }
func (t *Rename) children() []Term     { return []Term{t.T} }
func (t *AntiProject) children() []Term {
	return []Term{t.T}
}
func (t *Fixpoint) children() []Term { return []Term{t.Body} }

func (t *Var) withChildren(ch []Term) Term        { return t }
func (t *ConstTuple) withChildren(ch []Term) Term { return t }
func (t *Union) withChildren(ch []Term) Term      { return &Union{L: ch[0], R: ch[1]} }
func (t *Join) withChildren(ch []Term) Term       { return &Join{L: ch[0], R: ch[1]} }
func (t *Antijoin) withChildren(ch []Term) Term   { return &Antijoin{L: ch[0], R: ch[1]} }
func (t *Filter) withChildren(ch []Term) Term     { return &Filter{Cond: t.Cond, T: ch[0]} }
func (t *Rename) withChildren(ch []Term) Term {
	return &Rename{From: t.From, To: t.To, T: ch[0]}
}
func (t *AntiProject) withChildren(ch []Term) Term {
	return &AntiProject{Cols: t.Cols, T: ch[0]}
}
func (t *Fixpoint) withChildren(ch []Term) Term { return &Fixpoint{X: t.X, Body: ch[0]} }

// TermEqual reports structural equality of two terms. Terms print
// canonically, so string equality is structural equality.
func TermEqual(a, b Term) bool { return a.String() == b.String() }

// Children returns the direct subterms of t in a fixed order.
func Children(t Term) []Term { return t.children() }

// WithChildren rebuilds t with replaced subterms (same arity as Children).
func WithChildren(t Term, ch []Term) Term { return t.withChildren(ch) }

// Rewrite applies f to every node bottom-up and returns the rewritten term.
// f receives a node whose children have already been rewritten.
func Rewrite(t Term, f func(Term) Term) Term {
	ch := t.children()
	if len(ch) > 0 {
		nch := make([]Term, len(ch))
		changed := false
		for i, c := range ch {
			nch[i] = Rewrite(c, f)
			if nch[i] != c {
				changed = true
			}
		}
		if changed {
			t = t.withChildren(nch)
		}
	}
	return f(t)
}

// Walk visits every node top-down; if f returns false the node's subterms
// are skipped.
func Walk(t Term, f func(Term) bool) {
	if !f(t) {
		return
	}
	for _, c := range t.children() {
		Walk(c, f)
	}
}

// FreeVars returns the free relation variables of t (recursion variables
// bound by enclosing fixpoints are excluded), sorted.
func FreeVars(t Term) []string {
	seen := map[string]bool{}
	var visit func(t Term, bound map[string]bool)
	visit = func(t Term, bound map[string]bool) {
		switch n := t.(type) {
		case *Var:
			if !bound[n.Name] {
				seen[n.Name] = true
			}
		case *Fixpoint:
			nb := map[string]bool{n.X: true}
			for k := range bound {
				nb[k] = true
			}
			visit(n.Body, nb)
		default:
			for _, c := range t.children() {
				visit(c, bound)
			}
		}
	}
	visit(t, map[string]bool{})
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ContainsVar reports whether name occurs free in t. In the paper's
// terminology, t is "constant in X" iff !ContainsVar(t, X).
func ContainsVar(t Term, name string) bool {
	switch n := t.(type) {
	case *Var:
		return n.Name == name
	case *Union:
		return ContainsVar(n.L, name) || ContainsVar(n.R, name)
	case *Join:
		return ContainsVar(n.L, name) || ContainsVar(n.R, name)
	case *Antijoin:
		return ContainsVar(n.L, name) || ContainsVar(n.R, name)
	case *Filter:
		return ContainsVar(n.T, name)
	case *Rename:
		return ContainsVar(n.T, name)
	case *AntiProject:
		return ContainsVar(n.T, name)
	case *Fixpoint:
		return n.X != name && ContainsVar(n.Body, name) // a rebinding shadows
	}
	return false
}

// Substitute replaces free occurrences of name in t by repl. Fixpoints that
// rebind name shadow it.
func Substitute(t Term, name string, repl Term) Term {
	switch n := t.(type) {
	case *Var:
		if n.Name == name {
			return repl
		}
		return t
	case *Fixpoint:
		if n.X == name {
			return t
		}
		return &Fixpoint{X: n.X, Body: Substitute(n.Body, name, repl)}
	default:
		ch := n.children()
		if len(ch) == 0 {
			return t
		}
		nch := make([]Term, len(ch))
		changed := false
		for i, c := range ch {
			nch[i] = Substitute(c, name, repl)
			if nch[i] != c {
				changed = true
			}
		}
		if !changed {
			return t
		}
		return n.withChildren(nch)
	}
}

// CountVarOccurrences returns the number of free occurrences of the
// relation variable name in t. Occurrences under a fixpoint that rebinds
// name are bound and not counted, mirroring Substitute's shadowing.
func CountVarOccurrences(t Term, name string) int {
	switch n := t.(type) {
	case *Var:
		if n.Name == name {
			return 1
		}
		return 0
	case *Fixpoint:
		if n.X == name {
			return 0
		}
	}
	total := 0
	for _, c := range t.children() {
		total += CountVarOccurrences(c, name)
	}
	return total
}

// SubstituteOccurrence replaces only the idx-th free occurrence of name in
// t (0-based, in CountVarOccurrences order) with repl, leaving every other
// occurrence alone — the surgical sibling of Substitute. It exists to
// build the derivative of a term with respect to one relation: the union
// of t[occurrence i := Δ] over all occurrences i derives exactly the rows
// whose instantiation uses at least one Δ row, which is how delta-seeded
// refresh turns a batch of new edges into new results without
// re-deriving the old ones. Out of range idx returns t unchanged.
func SubstituteOccurrence(t Term, name string, idx int, repl Term) Term {
	out, _ := substOccurrence(t, name, idx, repl)
	return out
}

// substOccurrence walks t counting down rem free occurrences of name; the
// occurrence that hits rem == 0 is replaced and the countdown goes
// negative, so the remaining traversal passes every subterm through
// untouched.
func substOccurrence(t Term, name string, rem int, repl Term) (Term, int) {
	if rem < 0 {
		return t, rem
	}
	switch n := t.(type) {
	case *Var:
		if n.Name == name {
			if rem == 0 {
				return repl, -1
			}
			return t, rem - 1
		}
		return t, rem
	case *Fixpoint:
		if n.X == name {
			return t, rem
		}
	}
	ch := t.children()
	if len(ch) == 0 {
		return t, rem
	}
	nch := make([]Term, len(ch))
	changed := false
	for i, c := range ch {
		nch[i], rem = substOccurrence(c, name, rem, repl)
		if nch[i] != c {
			changed = true
		}
	}
	if !changed {
		return t, rem
	}
	return t.withChildren(nch), rem
}

// SchemaEnv maps relation variable names to their column schemas (sorted).
type SchemaEnv map[string][]string

// With returns a copy of the env with an extra binding.
func (e SchemaEnv) With(name string, cols []string) SchemaEnv {
	out := make(SchemaEnv, len(e)+1)
	for k, v := range e {
		out[k] = v
	}
	out[name] = cols
	return out
}

// UnionBranches flattens nested unions into the list of their operands.
func UnionBranches(t Term) []Term { return appendBranches(nil, t) }

func appendBranches(dst []Term, t Term) []Term {
	if u, ok := t.(*Union); ok {
		return appendBranches(appendBranches(dst, u.L), u.R)
	}
	return append(dst, t)
}

// UnionOf rebuilds a term from union branches (right-leaning). An empty
// list is invalid.
func UnionOf(branches []Term) Term {
	if len(branches) == 0 {
		panic("core: UnionOf on empty branch list")
	}
	t := branches[len(branches)-1]
	for i := len(branches) - 2; i >= 0; i-- {
		t = &Union{L: branches[i], R: t}
	}
	return t
}

// composeVia is the fresh middle-column name used by Compose.
const composeMid = "@m"

// Compose returns the relation composition l ∘ r over (src,trg) schemas:
// π̃m(ρ^m_trg(l) ⋈ ρ^m_src(r)), i.e. pairs (x,z) such that l(x,y) and
// r(y,z). Both operands must have schema {src,trg}.
func Compose(l, r Term) Term {
	return &AntiProject{Cols: []string{composeMid}, T: &Join{
		L: &Rename{From: ColTrg, To: composeMid, T: l},
		R: &Rename{From: ColSrc, To: composeMid, T: r},
	}}
}

// ClosureLR builds the transitive closure e+ evaluated left-to-right:
// µ(X = e ∪ (X ∘ e)) — start from e and append e to the right.
func ClosureLR(x string, e Term) *Fixpoint {
	return &Fixpoint{X: x, Body: &Union{L: e, R: Compose(&Var{Name: x}, e)}}
}

// ClosureRL builds the transitive closure e+ evaluated right-to-left:
// µ(X = e ∪ (e ∘ X)) — start from e and append e to the left.
func ClosureRL(x string, e Term) *Fixpoint {
	return &Fixpoint{X: x, Body: &Union{L: e, R: Compose(e, &Var{Name: x})}}
}

// EdgeRel builds the (src,trg) relation of edges labeled pred out of a
// triple relation rel(src,pred,trg): π̃pred(σpred=label(rel)).
func EdgeRel(rel string, label Value) Term {
	return &AntiProject{Cols: []string{ColPred}, T: &Filter{
		Cond: EqConst{Col: ColPred, Val: label},
		T:    &Var{Name: rel},
	}}
}

// SwapSrcTrg swaps the src and trg columns of a binary (src,trg) term via
// a three-rename chain.
func SwapSrcTrg(t Term) Term {
	const tmp = "@swap"
	return &Rename{From: tmp, To: ColSrc,
		T: &Rename{From: ColSrc, To: ColTrg,
			T: &Rename{From: ColTrg, To: tmp, T: t}}}
}

// InverseEdgeRel is EdgeRel with src and trg swapped (the -label of UCRPQ).
func InverseEdgeRel(rel string, label Value) Term {
	return SwapSrcTrg(EdgeRel(rel, label))
}
