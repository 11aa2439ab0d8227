package datalog

import (
	"fmt"
	"maps"

	"repro/internal/core"
)

// EvalStats counts evaluation work.
type EvalStats struct {
	Iterations int // semi-naive iterations across all recursive strata
	Derived    int // tuples derived (including duplicates rejected)
}

// Eval computes the least model of prog over the extensional database edb
// and returns a DB containing edb plus all IDB predicates. Evaluation is
// stratum-by-stratum (dependency SCCs in topological order), each stratum
// run semi-naively.
func Eval(prog *Program, edb DB) (DB, *EvalStats, error) {
	if err := prog.Validate(); err != nil {
		return nil, nil, err
	}
	arities, err := prog.Arities()
	if err != nil {
		return nil, nil, err
	}
	db := DB{}
	maps.Copy(db, edb) // the EDB relations are shared
	for pred, arity := range arities {
		if _, ok := db[pred]; !ok {
			db[pred] = NewRel(arity)
		}
	}
	stats := &EvalStats{}
	for _, scc := range SCCs(prog) {
		rules := rulesFor(prog, scc)
		iters, derived, err := runSemiNaive(rules, scc, db)
		if err != nil {
			return nil, nil, err
		}
		stats.Iterations += iters
		stats.Derived += derived
	}
	return db, stats, nil
}

// rulesFor returns the rules whose head predicate belongs to the SCC.
func rulesFor(prog *Program, scc map[string]bool) []Rule {
	var out []Rule
	for _, r := range prog.Rules {
		if scc[r.Head.Pred] {
			out = append(out, r)
		}
	}
	return out
}

// SCCs returns the strongly connected components of the IDB dependency
// graph in topological (bottom-up) order. Each component is the set of
// mutually recursive predicates evaluated together.
func SCCs(prog *Program) []map[string]bool {
	idb := prog.IDB()
	deps := map[string][]string{}
	for _, r := range prog.Rules {
		for _, a := range r.Body {
			if idb[a.Pred] {
				deps[r.Head.Pred] = append(deps[r.Head.Pred], a.Pred)
			}
		}
	}
	// Tarjan's algorithm.
	var (
		index    = map[string]int{}
		lowlink  = map[string]int{}
		onStack  = map[string]bool{}
		stack    []string
		counter  int
		out      []map[string]bool
		strongly func(v string)
	)
	strongly = func(v string) {
		index[v] = counter
		lowlink[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range deps[v] {
			if _, seen := index[w]; !seen {
				strongly(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			comp := map[string]bool{}
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = true
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	// Deterministic order: visit head predicates in program order.
	for _, r := range prog.Rules {
		if _, seen := index[r.Head.Pred]; !seen {
			strongly(r.Head.Pred)
		}
	}
	return out
}

// runSemiNaive evaluates the rules of one SCC against db (which already
// holds all lower strata and the EDB), mutating db. Iteration 0 fires every
// rule with the SCC predicates empty (deriving the base cases); subsequent
// iterations fire delta-rules — for each occurrence of an SCC predicate in
// a body, a variant evaluates that occurrence against the last delta.
func runSemiNaive(rules []Rule, scc map[string]bool, db DB) (iters, derived int, err error) {
	delta := map[string]*Rel{}
	// Base pass: SCC preds are empty, so only non-recursive rules fire.
	for _, r := range rules {
		recursive := false
		for _, a := range r.Body {
			if scc[a.Pred] {
				recursive = true
				break
			}
		}
		if recursive {
			continue
		}
		rows, err := evalRule(r, db, nil)
		if err != nil {
			return 0, 0, err
		}
		for _, row := range rows {
			derived++
			if db[r.Head.Pred].Add(row) {
				d := delta[r.Head.Pred]
				if d == nil {
					d = NewRel(len(row))
					delta[r.Head.Pred] = d
				}
				d.Add(row)
			}
		}
	}
	for len(delta) > 0 {
		iters++
		next := map[string]*Rel{}
		for _, r := range rules {
			for i, a := range r.Body {
				if !scc[a.Pred] {
					continue
				}
				d, ok := delta[a.Pred]
				if !ok || d.Len() == 0 {
					continue
				}
				rows, err := evalRule(r, db, map[int]*Rel{i: d})
				if err != nil {
					return 0, 0, err
				}
				for _, row := range rows {
					derived++
					if db[r.Head.Pred].Add(row) {
						nd := next[r.Head.Pred]
						if nd == nil {
							nd = NewRel(len(row))
							next[r.Head.Pred] = nd
						}
						nd.Add(row)
					}
				}
			}
		}
		delta = next
	}
	return iters, derived, nil
}

// evalRule computes the head tuples derivable from one rule by joining its
// body left-to-right with index lookups. overrides replaces the relation
// used for specific body atom positions (the semi-naive delta).
func evalRule(r Rule, db DB, overrides map[int]*Rel) ([][]core.Value, error) {
	var out [][]core.Value
	bind := map[string]core.Value{}
	var step func(i int) error
	step = func(i int) error {
		if i == len(r.Body) {
			row := make([]core.Value, len(r.Head.Args))
			for j, ar := range r.Head.Args {
				if ar.IsVar {
					v, ok := bind[ar.Var]
					if !ok {
						return fmt.Errorf("datalog: unbound head variable %s in %s", ar.Var, r)
					}
					row[j] = v
				} else {
					row[j] = ar.Const
				}
			}
			out = append(out, row)
			return nil
		}
		atom := r.Body[i]
		rel := db[atom.Pred]
		if o, ok := overrides[i]; ok {
			rel = o
		}
		if rel == nil {
			return fmt.Errorf("datalog: unknown predicate %s", atom.Pred)
		}
		var positions []int
		var vals []core.Value
		for j, ar := range atom.Args {
			if ar.IsVar {
				if v, ok := bind[ar.Var]; ok {
					positions = append(positions, j)
					vals = append(vals, v)
				}
			} else {
				positions = append(positions, j)
				vals = append(vals, ar.Const)
			}
		}
		for _, row := range rel.Match(positions, vals) {
			var bound []string
			ok := true
			for j, ar := range atom.Args {
				if !ar.IsVar {
					continue
				}
				if _, already := bind[ar.Var]; already {
					if bind[ar.Var] != row[j] {
						// Repeated variable within the atom not covered by
						// the index probe.
						ok = false
						break
					}
					continue
				}
				bind[ar.Var] = row[j]
				bound = append(bound, ar.Var)
			}
			if ok {
				if err := step(i + 1); err != nil {
					return err
				}
			}
			for _, v := range bound {
				delete(bind, v)
			}
		}
		return nil
	}
	if err := step(0); err != nil {
		return nil, err
	}
	return out, nil
}

// Query evaluates prog and returns the tuples of the query atom's
// predicate matching its constant arguments.
func Query(prog *Program, edb DB, q Atom) (*Rel, *EvalStats, error) {
	db, stats, err := Eval(prog, edb)
	if err != nil {
		return nil, nil, err
	}
	rel, err := SelectMatching(db, q)
	if err != nil {
		return nil, nil, err
	}
	return rel, stats, nil
}

// SelectMatching filters a predicate's tuples by the query atom's constant
// arguments.
func SelectMatching(db DB, q Atom) (*Rel, error) {
	rel, ok := db[q.Pred]
	if !ok {
		return nil, fmt.Errorf("datalog: unknown query predicate %s", q.Pred)
	}
	var positions []int
	var vals []core.Value
	for j, ar := range q.Args {
		if !ar.IsVar {
			positions = append(positions, j)
			vals = append(vals, ar.Const)
		}
	}
	out := NewRel(rel.Arity())
	for _, row := range rel.Match(positions, vals) {
		out.Add(row)
	}
	return out, nil
}
