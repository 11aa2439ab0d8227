package core

import (
	"fmt"
	"slices"
	"strings"
)

// This file is the µ-RA plan checker, the one place the paper's typing
// discipline is derived: per-operator column sets and arities, and the
// fixpoint conditions of Definition 1 (Fcond). The evaluator runs it on
// every term it evaluates, the engine on every plan it caches or executes,
// and the rewriter on every rule output and composed candidate. Findings
// come back as typed diagnostics a caller can assert on.
//
// One scope rule holds throughout: a fixpoint binder is in scope over its
// whole body, seed branches included, and may not shadow a name already
// bound where the fixpoint occurs.

// Code classifies a checker diagnostic.
type Code string

const (
	// CodeMalformed covers structural rot: nil subterms, constant
	// tuples with skewed column/value arity, unsorted constant columns.
	CodeMalformed Code = "malformed-term"
	// CodeUnboundVar is a relation variable with no binding in scope.
	CodeUnboundVar Code = "unbound-var"
	// CodeUnionSchema is a union whose operands disagree on columns.
	CodeUnionSchema Code = "union-schema-mismatch"
	// CodeFilterColumn is a filter predicate over a missing column.
	CodeFilterColumn Code = "filter-unknown-column"
	// CodeRenameSource is a rename whose source column is absent.
	CodeRenameSource Code = "rename-unknown-source"
	// CodeRenameCollision is a rename onto an existing column.
	CodeRenameCollision Code = "rename-target-collision"
	// CodeDropColumn is an anti-projection of a missing column.
	CodeDropColumn Code = "antiproject-unknown-column"
	// CodeFixShadow is a fixpoint binder reusing a name already bound
	// in scope. Semantically legal, but the engine's enumerators always
	// use fresh binders, so a shadow marks a generator bug.
	CodeFixShadow Code = "fixpoint-shadowed-binder"
	// CodeFixNoConst is a fixpoint with no branch constant in X, or whose
	// constant part has no columns to seed the iteration's schema.
	CodeFixNoConst Code = "fixpoint-no-constant-part"
	// CodeFixSchemaDrift is a fixpoint branch whose schema differs from
	// its constant part's (the seed the iteration starts from).
	CodeFixSchemaDrift Code = "fixpoint-schema-drift"
	// CodeFixNonPositive is X on the right of an antijoin (Fcond 1).
	CodeFixNonPositive Code = "fixpoint-nonpositive"
	// CodeFixNonLinear is X on both sides of a join (Fcond 2).
	CodeFixNonLinear Code = "fixpoint-nonlinear"
	// CodeFixMutual is X free inside a differently-bound nested
	// fixpoint (Fcond 3).
	CodeFixMutual Code = "fixpoint-mutual-recursion"
)

// Diagnostic is one checker finding.
type Diagnostic struct {
	Code Code
	// Path locates the offending operator from the root, e.g.
	// "/filter.in/fixpoint.branch[1]/join.l".
	Path string
	// Term is the offending subterm, rendered (possibly truncated).
	Term string
	// Detail is the human-readable explanation.
	Detail string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s at %s: %s (in %s)", d.Code, d.Path, d.Detail, d.Term)
}

// CheckError is the error Schema and CheckFcond return: every diagnostic
// the check found.
type CheckError struct {
	Diags []Diagnostic
}

func (e *CheckError) Error() string {
	parts := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		parts[i] = d.String()
	}
	return "core: ill-formed plan: " + strings.Join(parts, "; ")
}

// Schema computes the output columns (sorted) of t under env and checks
// that t is well-formed: union operands and fixpoint branches agree,
// renames and anti-projections name existing columns, every variable is
// bound, constant tuples are sound, and every fixpoint has a constant
// part, shadows no binding and satisfies Fcond. A failed check returns a
// *CheckError carrying all the diagnostics it could localize.
func Schema(t Term, env SchemaEnv) ([]string, error) {
	c := checker{env: env}
	cols, _ := c.check(t)
	if err := c.err(); err != nil {
		return nil, err
	}
	return cols, nil
}

// CheckFcond verifies the three conditions of Definition 1 of the paper for
// the fixpoint µ(X = Ψ):
//
//   - positive: for all subterms φ1 ▷ φ2 of Ψ, X does not occur free in φ2;
//   - linear: for all subterms φ1 ⋈ φ2 and φ1 ▷ φ2 of Ψ, X occurs free in
//     at most one operand;
//   - non mutually recursive: X does not occur free inside a nested
//     fixpoint µ(Y = ψ) of Ψ (occurrences within a rebinding µ(X = γ) are
//     bound, hence allowed).
//
// These conditions guarantee that Ψ distributes over singletons
// (Proposition 1) and therefore that the fixpoint exists, can be computed
// semi-naively (Algorithm 1), and can be split (Proposition 3). Schema
// runs the same walk on every fixpoint it checks.
func CheckFcond(fp *Fixpoint) error {
	var c checker
	c.fcondIn("fixpoint.body", fp.Body, fp.X)
	return c.err()
}

// checker accumulates diagnostics over one walk. Paths are built only for
// reported findings: each step prefixes its name to the diagnostics its
// operand reported.
type checker struct {
	env   SchemaEnv
	scope []binding // enclosing fixpoint binders, innermost last
	diags []Diagnostic
}

type binding struct {
	name string
	cols []string
}

func (c *checker) lookup(name string) ([]string, bool) {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == name {
			return c.scope[i].cols, true
		}
	}
	cols, ok := c.env[name]
	return cols, ok
}

func (c *checker) err() error {
	if len(c.diags) == 0 {
		return nil
	}
	for i := range c.diags {
		if c.diags[i].Path == "" {
			c.diags[i].Path = "/"
		}
	}
	return &CheckError{Diags: c.diags}
}

func (c *checker) report(code Code, t Term, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Code: code, Term: termString(t), Detail: fmt.Sprintf(format, args...)})
}

// prefix prepends step to the paths of the diagnostics reported since mark.
func (c *checker) prefix(mark int, step string) {
	for i := mark; i < len(c.diags); i++ {
		c.diags[i].Path = "/" + step + c.diags[i].Path
	}
}

// in checks t, the operand reached through step.
func (c *checker) in(step string, t Term) ([]string, bool) {
	mark := len(c.diags)
	cols, ok := c.check(t)
	c.prefix(mark, step)
	return cols, ok
}

// branch checks the i-th union branch of a fixpoint body.
func (c *checker) branch(i int, br Term) ([]string, bool) {
	mark := len(c.diags)
	cols, ok := c.check(br)
	if len(c.diags) > mark {
		c.prefix(mark, fmt.Sprintf("fixpoint.branch[%d]", i))
	}
	return cols, ok
}

// check infers t's columns, reporting every violation it can localize.
// ok=false means cols is unusable and the parent derives nothing from it,
// but sibling subterms are still checked.
func (c *checker) check(t Term) (cols []string, ok bool) {
	switch n := t.(type) {
	case nil:
		c.report(CodeMalformed, t, "nil subterm")
		return nil, false

	case *Var:
		if cols, ok = c.lookup(n.Name); !ok {
			c.report(CodeUnboundVar, t, "relation variable %q is not bound here", n.Name)
		}
		return cols, ok

	case *ConstTuple:
		if len(n.Cols) != len(n.Vals) {
			c.report(CodeMalformed, t, "constant tuple arity skew: %d columns vs %d values", len(n.Cols), len(n.Vals))
			return nil, false
		}
		for i := 1; i < len(n.Cols); i++ {
			if n.Cols[i-1] >= n.Cols[i] {
				c.report(CodeMalformed, t, "constant tuple columns not sorted/unique: %v", n.Cols)
				return nil, false
			}
		}
		return n.Cols, true

	case *Union:
		l, lok := c.in("union.l", n.L)
		r, rok := c.in("union.r", n.R)
		if lok && rok && !ColsEqual(l, r) {
			c.report(CodeUnionSchema, t, "union operands disagree: %v vs %v", l, r)
			return nil, false
		}
		return l, lok && rok

	case *Join:
		l, lok := c.in("join.l", n.L)
		r, rok := c.in("join.r", n.R)
		if !lok || !rok {
			return nil, false
		}
		return ColsUnion(l, r), true

	case *Antijoin:
		l, lok := c.in("antijoin.l", n.L)
		_, rok := c.in("antijoin.r", n.R)
		return l, lok && rok

	case *Filter:
		if cols, ok = c.in("filter.in", n.T); !ok {
			return nil, false
		}
		for _, col := range n.Cond.Columns() {
			if ColIndex(cols, col) < 0 {
				c.report(CodeFilterColumn, t, "filter condition uses column %q, not in schema %v", col, cols)
				ok = false
			}
		}
		return cols, ok

	case *Rename:
		if cols, ok = c.in("rename.in", n.T); !ok || n.From == n.To {
			return cols, ok
		}
		from := ColIndex(cols, n.From)
		if from < 0 {
			c.report(CodeRenameSource, t, "rename source %q not in schema %v", n.From, cols)
			return nil, false
		}
		if ColIndex(cols, n.To) >= 0 {
			c.report(CodeRenameCollision, t, "rename target %q already in schema %v", n.To, cols)
			return nil, false
		}
		out := slices.Clone(cols)
		out[from] = n.To
		slices.Sort(out)
		return out, true

	case *AntiProject:
		if cols, ok = c.in("antiproject.in", n.T); !ok {
			return nil, false
		}
		for _, col := range n.Cols {
			if ColIndex(cols, col) < 0 {
				c.report(CodeDropColumn, t, "anti-projection drops column %q, not in schema %v", col, cols)
				ok = false
			}
		}
		if !ok {
			return nil, false
		}
		return ColsMinus(cols, n.Cols), true

	case *Fixpoint:
		return c.fixpoint(n)

	default:
		c.report(CodeMalformed, t, "unknown term node %T", t)
		return nil, false
	}
}

// fixpoint checks µ(X = body): X shadows no binding in scope, the first
// union branch constant in X seeds the schema, every other branch agrees
// with the seed (the µ-RA fixpoint typing rule, reported as drift rather
// than as a generic union mismatch), and the body satisfies Fcond.
func (c *checker) fixpoint(fp *Fixpoint) ([]string, bool) {
	if _, bound := c.lookup(fp.X); bound {
		c.report(CodeFixShadow, fp, "fixpoint binder %q shadows a binding already in scope", fp.X)
		return nil, false
	}
	var buf [8]Term
	branches := appendBranches(buf[:0], fp.Body)
	seedAt := -1
	for i, br := range branches {
		if !ContainsVar(br, fp.X) {
			seedAt = i
			break
		}
	}
	if seedAt < 0 {
		c.report(CodeFixNoConst, fp, "no union branch is constant in %q; the fixpoint has no seed", fp.X)
		return nil, false
	}

	top := len(c.scope)
	c.scope = append(c.scope, binding{name: fp.X})
	defer func() { c.scope = c.scope[:top] }()
	seed, ok := c.branch(seedAt, branches[seedAt])
	if !ok {
		return nil, false
	}
	if len(seed) == 0 {
		c.report(CodeFixNoConst, fp, "the constant part of %q has no columns to seed the fixpoint's schema", fp.X)
		return nil, false
	}
	c.scope[top].cols = seed
	for i, br := range branches {
		if i == seedAt {
			continue
		}
		cols, brOK := c.branch(i, br)
		if !brOK {
			ok = false
			continue
		}
		if !ColsEqual(cols, seed) {
			c.report(CodeFixSchemaDrift, fp, "branch %d schema %v drifts from constant-part schema %v", i, cols, seed)
			ok = false
		}
	}
	if !ok || !c.fcondIn("fixpoint.body", fp.Body, fp.X) {
		return nil, false
	}
	return seed, true
}

func (c *checker) fcondIn(step string, t Term, x string) bool {
	mark := len(c.diags)
	ok := c.fcond(t, x)
	c.prefix(mark, step)
	return ok
}

// fcond walks t reporting the Definition-1 violations for the binder x
// (see CheckFcond). A nested fixpoint ends the walk: its own binder is
// checked when Schema reaches it.
func (c *checker) fcond(t Term, x string) bool {
	switch n := t.(type) {
	case *Antijoin:
		ok := !ContainsVar(n.R, x)
		if !ok {
			c.report(CodeFixNonPositive, t, "recursion variable %q occurs on the right of an antijoin", x)
		}
		return c.fcondIn("antijoin.l", n.L, x) && ok
	case *Join:
		ok := !ContainsVar(n.L, x) || !ContainsVar(n.R, x)
		if !ok {
			c.report(CodeFixNonLinear, t, "recursion variable %q occurs on both sides of a join", x)
		}
		l := c.fcondIn("join.l", n.L, x)
		r := c.fcondIn("join.r", n.R, x)
		return ok && l && r
	case *Fixpoint:
		if n.X != x && ContainsVar(n.Body, x) {
			c.report(CodeFixMutual, t, "recursion variable %q occurs free inside nested fixpoint µ(%s)", x, n.X)
			return false
		}
		return true // a rebinding µ(X = γ) binds every inner occurrence
	case *Union:
		l := c.fcondIn("union.l", n.L, x)
		r := c.fcondIn("union.r", n.R, x)
		return l && r
	case *Filter:
		return c.fcondIn("filter.in", n.T, x)
	case *Rename:
		return c.fcondIn("rename.in", n.T, x)
	case *AntiProject:
		return c.fcondIn("antiproject.in", n.T, x)
	}
	return true
}

// termString renders t for a diagnostic, truncated to 120 runes. fmt
// describes a nil term, and a corrupted one whose String panics (a
// ConstTuple indexes its values by column), instead of failing.
func termString(t Term) string {
	s := fmt.Sprint(t)
	if r := []rune(s); len(r) > 120 {
		s = string(r[:117]) + "..."
	}
	return s
}
