package core

import (
	"fmt"
	"strings"
)

// Condition is the filter predicate language of σf. The µ-RA development in
// the paper only needs conjunctions of (in)equality comparisons between
// columns and constants, which is what UCRPQ translation produces; the
// interface is open for extension.
type Condition interface {
	// Holds evaluates the condition on a row aligned with cols.
	Holds(cols []string, row []Value) bool
	// Columns returns the column names the condition reads (sorted, unique).
	Columns() []string
	// String renders the condition.
	String() string
}

// EqConst is the condition col = val.
type EqConst struct {
	Col string
	Val Value
}

// Holds implements Condition.
func (c EqConst) Holds(cols []string, row []Value) bool {
	i := ColIndex(cols, c.Col)
	return i >= 0 && row[i] == c.Val
}

// Columns implements Condition.
func (c EqConst) Columns() []string { return []string{c.Col} }

func (c EqConst) String() string { return fmt.Sprintf("%s=%d", c.Col, c.Val) }

// NeConst is the condition col ≠ val.
type NeConst struct {
	Col string
	Val Value
}

// Holds implements Condition.
func (c NeConst) Holds(cols []string, row []Value) bool {
	i := ColIndex(cols, c.Col)
	return i >= 0 && row[i] != c.Val
}

// Columns implements Condition.
func (c NeConst) Columns() []string { return []string{c.Col} }

func (c NeConst) String() string { return fmt.Sprintf("%s!=%d", c.Col, c.Val) }

// EqCols is the condition colA = colB.
type EqCols struct {
	A, B string
}

// Holds implements Condition.
func (c EqCols) Holds(cols []string, row []Value) bool {
	i, j := ColIndex(cols, c.A), ColIndex(cols, c.B)
	return i >= 0 && j >= 0 && row[i] == row[j]
}

// Columns implements Condition.
func (c EqCols) Columns() []string { return SortCols([]string{c.A, c.B}) }

func (c EqCols) String() string { return fmt.Sprintf("%s=%s", c.A, c.B) }

// And is the conjunction of conditions. An empty And is trivially true.
type And []Condition

// Holds implements Condition.
func (a And) Holds(cols []string, row []Value) bool {
	for _, c := range a {
		if !c.Holds(cols, row) {
			return false
		}
	}
	return true
}

// Columns implements Condition.
func (a And) Columns() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range a {
		for _, col := range c.Columns() {
			if !seen[col] {
				seen[col] = true
				out = append(out, col)
			}
		}
	}
	return SortCols(out)
}

func (a And) String() string {
	parts := make([]string, len(a))
	for i, c := range a {
		parts[i] = c.String()
	}
	return strings.Join(parts, " and ")
}

// Or is the disjunction of conditions. An empty Or is trivially false.
type Or []Condition

// Holds implements Condition.
func (o Or) Holds(cols []string, row []Value) bool {
	for _, c := range o {
		if c.Holds(cols, row) {
			return true
		}
	}
	return false
}

// Columns implements Condition.
func (o Or) Columns() []string { return And(o).Columns() }

func (o Or) String() string {
	parts := make([]string, len(o))
	for i, c := range o {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " or ") + ")"
}
