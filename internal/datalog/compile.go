package datalog

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/physical"
)

// ErrUnsupportedSCC reports a rule or SCC that has no single linear µ-RA
// fixpoint: mutually recursive predicates, a rule with two recursive body
// atoms, or a head that repeats a variable.
var ErrUnsupportedSCC = errors.New("datalog: SCC has no single linear µ-RA fixpoint")

// Stratum is one SCC compiled to a µ-RA term. The term's result, over the
// columns Cols (PosCols of the predicate's arity), is bound under Pred for
// the strata after it.
type Stratum struct {
	Pred string
	Cols []string
	Term core.Term // nil when the SCC derives nothing (no base rule)
}

// Compile turns each SCC of prog, in SCCs order, into one µ-RA term, and
// returns the strata with the query term, which selects the query atom's
// constants from its predicate:
//
//   - a rule body becomes the left-to-right join of its atoms, each a
//     renamed relation variable with σ for its constants and repeated
//     variables, and π̃ drops a variable once no later atom nor the head
//     uses it;
//   - a fact (or head constant) becomes a ConstTuple;
//   - a recursive SCC becomes µ(p = ∪ rules).
//
// An EDB predicate q reads the relation variable q, whose columns in
// argument order are edbCols[q]; an IDB predicate has the columns PosCols.
// A head variable is named by its head column from the start, so a column
// a recursive atom passes through to the same head position carries no
// rename and core.StableCols sees it.
func Compile(prog *Program, query Atom, edbCols map[string][]string) ([]Stratum, core.Term, error) {
	if err := prog.Validate(); err != nil {
		return nil, nil, err
	}
	arities, _ := prog.Arities() // checked by Validate
	idb := prog.IDB()
	colsOf := map[string][]string{}
	for pred, arity := range arities {
		cols, edb := edbCols[pred]
		switch {
		case idb[pred] && edb:
			return nil, nil, fmt.Errorf("datalog: predicate %s is both EDB and IDB", pred)
		case idb[pred]:
			colsOf[pred] = PosCols(arity)
		case !edb:
			return nil, nil, fmt.Errorf("datalog: no EDB relation for predicate %s", pred)
		case len(cols) != arity:
			return nil, nil, fmt.Errorf("datalog: predicate %s has arity %d, its EDB relation %d columns", pred, arity, len(cols))
		default:
			colsOf[pred] = cols
		}
	}
	var strata []Stratum
	for _, scc := range SCCs(prog) {
		st, err := compileSCC(rulesFor(prog, scc), scc, colsOf)
		if err != nil {
			return nil, nil, err
		}
		strata = append(strata, st)
	}
	qcols, ok := colsOf[query.Pred]
	if !ok || len(qcols) != len(query.Args) {
		return nil, nil, fmt.Errorf("datalog: query %s matches no predicate of the program", query)
	}
	q := core.Term(&core.Var{Name: query.Pred})
	for j, ar := range query.Args {
		if !ar.IsVar {
			q = &core.Filter{Cond: core.EqConst{Col: qcols[j], Val: ar.Const}, T: q}
		}
	}
	return strata, q, nil
}

func compileSCC(rules []Rule, scc map[string]bool, colsOf map[string][]string) (Stratum, error) {
	if len(scc) > 1 {
		return Stratum{}, fmt.Errorf("%w: mutually recursive %v", ErrUnsupportedSCC, scc)
	}
	pred := rules[0].Head.Pred
	var base, rec []core.Term
	for _, r := range rules {
		calls := 0
		for _, a := range r.Body {
			if a.Pred == pred {
				calls++
			}
		}
		if calls > 1 {
			return Stratum{}, fmt.Errorf("%w: non-linear rule %s", ErrUnsupportedSCC, r)
		}
		t, err := compileRule(r, colsOf)
		if err != nil {
			return Stratum{}, err
		}
		if calls == 0 {
			base = append(base, t)
		} else {
			rec = append(rec, t)
		}
	}
	st := Stratum{Pred: pred, Cols: colsOf[pred]}
	switch {
	case len(base) == 0:
		// Without a base rule the least fixpoint is empty.
	case len(rec) == 0:
		st.Term = core.UnionOf(base)
	default:
		st.Term = &core.Fixpoint{X: pred, Body: core.UnionOf(append(base, rec...))}
	}
	return st, nil
}

// compileRule builds the term of one rule over its head's PosCols.
func compileRule(r Rule, colsOf map[string][]string) (core.Term, error) {
	head := PosCols(len(r.Head.Args))
	col := map[string]string{} // variable → its column name in the rule
	headVar := map[string]bool{}
	var constCols []string
	var constVals []core.Value
	for i, ar := range r.Head.Args {
		switch {
		case !ar.IsVar:
			constCols = append(constCols, head[i])
			constVals = append(constVals, ar.Const)
		case headVar[ar.Var]:
			return nil, fmt.Errorf("%w: head of %s repeats %s", ErrUnsupportedSCC, r, ar.Var)
		default:
			col[ar.Var] = head[i]
			headVar[ar.Var] = true
		}
	}
	first, last := map[string]int{}, map[string]int{}
	for i, a := range r.Body {
		for _, ar := range a.Args {
			if !ar.IsVar {
				continue
			}
			if _, seen := first[ar.Var]; !seen {
				first[ar.Var] = i
			}
			last[ar.Var] = i
			if col[ar.Var] == "" {
				col[ar.Var] = "?" + ar.Var
			}
		}
	}
	// A variable only one atom uses is dropped from that atom right away.
	keep := func(v string) bool { return headVar[v] || first[v] != last[v] }
	var t core.Term
	for i, a := range r.Body {
		at := compileAtom(a, colsOf[a.Pred], col, keep)
		if t == nil {
			t = at
			continue
		}
		t = &core.Join{L: t, R: at}
		var drop []string
		for v, l := range last {
			if l == i && first[v] < i && !headVar[v] {
				drop = append(drop, col[v])
			}
		}
		if len(drop) > 0 {
			t = core.NewAntiProject(t, drop...)
		}
	}
	if len(constCols) > 0 {
		ct := core.NewConstTuple(constCols, constVals)
		if t == nil {
			return ct, nil
		}
		t = &core.Join{L: t, R: ct}
	}
	return t, nil
}

// compileAtom reads atom a from the relation variable a.Pred, whose columns
// in argument order are cols: a constant argument becomes σ col=c, a
// variable repeated within the atom σ col=col', and every kept variable's
// column is renamed to col[v]. The columns of constants, repeats and
// variables keep rejects are dropped.
func compileAtom(a Atom, cols []string, col map[string]string, keep func(string) bool) core.Term {
	t := core.Term(&core.Var{Name: a.Pred})
	firstCol := map[string]string{}
	rename := map[string]string{}
	var drop []string
	for j, ar := range a.Args {
		c := cols[j]
		switch {
		case !ar.IsVar:
			t = &core.Filter{Cond: core.EqConst{Col: c, Val: ar.Const}, T: t}
			drop = append(drop, c)
		case firstCol[ar.Var] != "":
			t = &core.Filter{Cond: core.EqCols{A: firstCol[ar.Var], B: c}, T: t}
			drop = append(drop, c)
		default:
			firstCol[ar.Var] = c
			if !keep(ar.Var) {
				drop = append(drop, c)
			} else if col[ar.Var] != c {
				rename[c] = col[ar.Var]
			}
		}
	}
	if len(drop) > 0 {
		t = core.NewAntiProject(t, drop...)
	}
	return renameAll(t, rename)
}

// renameAll applies the simultaneous renaming rename (column → new name,
// all new names distinct) as a chain of ρ. A column that is itself some
// rename's target is first parked under a temporary name, so no step
// renames onto a column still in use.
func renameAll(t core.Term, rename map[string]string) core.Term {
	targets := map[string]bool{}
	from := make([]string, 0, len(rename))
	for f, to := range rename {
		targets[to] = true
		from = append(from, f)
	}
	sort.Strings(from)
	for _, f := range from {
		if targets[f] {
			t = &core.Rename{From: f, To: "@" + f, T: t}
		}
	}
	for _, f := range from {
		src := f
		if targets[f] {
			src = "@" + f
		}
		t = &core.Rename{From: src, To: rename[f], T: t}
	}
	return t
}

// Run evaluates prog on the engine the way BigDatalog runs a program on
// Spark, as written (after MagicTransform, if the caller applied it): the
// compiled strata execute in order on a physical.Planner in session s, a recursive one
// under Ps_plw when core.StableColsOf finds a column it passes through
// unchanged (the decomposable case) and under Pgld otherwise. Each
// stratum's result is bound for the strata after it in a private copy of
// env, which Run never changes. It returns the rows matching the query
// atom and the report of every fixpoint run.
func Run(s *cluster.Session, env *core.Env, edbCols map[string][]string, prog *Program, query Atom) (*core.Relation, *physical.Report, error) {
	strata, q, err := Compile(prog, query, edbCols)
	if err != nil {
		return nil, nil, err
	}
	priv := core.NewEnv()
	for name, rel := range env.Rels {
		priv.Bind(name, rel)
	}
	planner := physical.NewSessionPlanner(s, priv)
	rep := &physical.Report{}
	for _, st := range strata {
		if st.Term == nil {
			priv.Bind(st.Pred, core.NewRelation(st.Cols...))
			continue
		}
		planner.Force = physical.Gld
		if fp, ok := st.Term.(*core.Fixpoint); ok {
			stable, err := core.StableColsOf(fp, priv.SchemaEnv())
			if err != nil {
				return nil, nil, fmt.Errorf("datalog: stratum %s: %w", st.Pred, err)
			}
			if len(stable) > 0 {
				planner.Force = physical.Splw
			}
		}
		rel, r, err := planner.Execute(st.Term)
		if err != nil {
			return nil, nil, fmt.Errorf("datalog: stratum %s: %w", st.Pred, err)
		}
		rep.Fixpoints = append(rep.Fixpoints, r.Fixpoints...)
		priv.Bind(st.Pred, rel)
	}
	rel, _, err := planner.Execute(q)
	if err != nil {
		return nil, nil, err
	}
	return rel, rep, nil
}
