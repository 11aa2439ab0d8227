package datalog

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

// FuzzDatalogParse fuzzes the Datalog program parser: no input may panic
// it, and every accepted program must round-trip through the printer —
// the rendered form (constants printed as their interned values) reparses
// into a program with the same rendering. Seeds come from the programs
// the package tests parse.
func FuzzDatalogParse(f *testing.F) {
	for _, seed := range []string{
		"tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- tc(X,Z), edge(Z,Y).",
		"seed(42).",
		"labeled(X,Y) :- g(X, knows, Y).",
		"p(X) :- g(X, 'Kevin Bacon').",
		"% comment only",
		"sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), down(V,Y).",
		"p(X) :- q(X). p(X) :- q(X,X).",
		"p(_,X) :- q(X).",
		"p(X) :- q(X)",
		"p() :- q(X).",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		dict := core.NewDict()
		prog, err := Parse(input, dict)
		if err != nil {
			return
		}
		printed := prog.String()
		again, err := Parse(printed, dict)
		if err != nil {
			t.Fatalf("accepted input but rejected its own rendering %q: %v", printed, err)
		}
		if again.String() != printed {
			t.Fatalf("printing not stable: %q → %q", printed, again.String())
		}
	})
}

// FuzzCompileMatchesEval is a differential fuzz of the µ-RA compiler:
// every program the parser accepts is evaluated by the reference Eval and
// by its compiled strata on core.Eval, over fixed small EDB relations of
// matching arity, and every IDB predicate and the query must hold the same
// rows. The EDB columns are PosCols reversed, so atoms exercise the
// rename-cycle path. A program Compile rejects with ErrUnsupportedSCC is
// skipped; any other error or a panic fails.
func FuzzCompileMatchesEval(f *testing.F) {
	for _, seed := range []string{
		"tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- tc(X,Z), edge(Z,Y).",
		"tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).",
		"sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), down(V,Y).",
		"p(Y,X) :- e(X,Y).\np(Y,X) :- p(X,Z), e(Z,Y).",
		"seed(1).\nr(Y) :- seed(X), e(X,Y).\nr(Y) :- r(X), e(X,Y).",
		"p(X) :- e(X,X).\nq(X,2) :- p(X), g(X,_,Y).",
		"even(X) :- z(X).\nodd(Y) :- even(X), e(X,Y).\neven(Y) :- odd(X), e(X,Y).",
		"tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).",
		"p(X,X) :- e(X,Y).",
		"p(X) :- e(X,X).",
		"p(1) :- e(X,Y).",
		"p(X,7) :- e(X,Y), e(Y,Z).",
		"p(X) :- e(X,Y), e(3,1).",
		"p(X,Y,Z) :- e(X,Y), e(Y,Z).\nq(Z,Y,X) :- p(X,Y,Z).",
		"p(X) :- p(X), e(X,X).",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		dict := core.NewDict()
		prog, err := Parse(input, dict)
		if err != nil || len(prog.Rules) == 0 {
			return
		}
		arities, _ := prog.Arities()
		idb := prog.IDB()
		edb := DB{}
		env := core.NewEnv()
		edbCols := map[string][]string{}
		for pred, arity := range arities {
			if idb[pred] {
				continue
			}
			cols := PosCols(arity)
			for i, j := 0, len(cols)-1; i < j; i, j = i+1, j-1 {
				cols[i], cols[j] = cols[j], cols[i]
			}
			rel, r := NewRel(arity), core.NewRelation(cols...)
			for k := 0; k < 6; k++ {
				row := make([]core.Value, arity)
				for i := range row {
					row[i] = core.Value((k + i*(k%3) + len(pred)) % 4)
				}
				rel.Add(row)
				r.AddTuple(cols, row)
			}
			edb[pred], edbCols[pred] = rel, cols
			env.Bind(pred, r)
		}
		head := prog.Rules[len(prog.Rules)-1].Head
		query := Atom{Pred: head.Pred, Args: make([]Arg, len(head.Args))}
		for i := range query.Args {
			query.Args[i] = V(fmt.Sprintf("Q%d", i))
		}
		strata, q, err := Compile(prog, query, edbCols)
		if errors.Is(err, ErrUnsupportedSCC) {
			return
		}
		if err != nil {
			t.Fatalf("compile %q: %v", input, err)
		}
		db, _, err := Eval(prog, edb)
		if err != nil {
			t.Fatalf("eval %q: %v", input, err)
		}
		got, err := evalCompiled(strata, q, env)
		if err != nil {
			t.Fatalf("compiled %q: %v", input, err)
		}
		if !sameRows(db[query.Pred], got) {
			t.Fatalf("%q: query %s compiled %v, reference %v", input, query.Pred, relationRows(got), db[query.Pred].Rows())
		}
		for pred := range idb {
			rel, _ := env.Lookup(pred)
			if !sameRows(db[pred], rel) {
				t.Fatalf("%q: %s compiled %v, reference %v", input, pred, relationRows(rel), db[pred].Rows())
			}
		}
	})
}
