package datalog

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/physical"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// edgeRel builds the EDB predicate e(X,Y) from pairs.
func edgeRel(pairs [][2]core.Value) *Rel {
	r := NewRel(2)
	for _, p := range pairs {
		r.Add([]core.Value{p[0], p[1]})
	}
	return r
}

// evalCompiled runs compiled strata on the centralized core evaluator,
// binding each stratum's result in env, and returns the query's rows.
func evalCompiled(strata []Stratum, query core.Term, env *core.Env) (*core.Relation, error) {
	for _, st := range strata {
		if st.Term == nil {
			env.Bind(st.Pred, core.NewRelation(st.Cols...))
			continue
		}
		rel, err := core.Eval(st.Term, env)
		if err != nil {
			return nil, err
		}
		env.Bind(st.Pred, rel)
	}
	return core.Eval(query, env)
}

// sortedRows renders rows (positional for Rel, sorted-column order for a
// Relation over PosCols, which is the same) as a sorted list.
func sortedRows(rows [][]core.Value) [][]core.Value {
	out := append([][]core.Value{}, rows...)
	sort.Slice(out, func(i, j int) bool { return core.RowKey(out[i]) < core.RowKey(out[j]) })
	return out
}

func relationRows(r *core.Relation) [][]core.Value {
	out := make([][]core.Value, r.Len())
	for i := range out {
		out[i] = append([]core.Value{}, r.RowAt(i)...)
	}
	return out
}

// sameRows reports whether the reference answer and a compiled one hold
// the same rows.
func sameRows(want *Rel, got *core.Relation) bool {
	if want.Len() != got.Len() {
		return false
	}
	return reflect.DeepEqual(sortedRows(want.Rows()), sortedRows(relationRows(got)))
}

// edgeEnv binds the pairs as relation e(src, trg) and returns the env with
// the matching EDB columns.
func edgeEnv(pairs [][2]core.Value) (*core.Env, map[string][]string) {
	e := core.NewRelation(core.ColSrc, core.ColTrg)
	for _, p := range pairs {
		e.Add([]core.Value{p[0], p[1]})
	}
	env := core.NewEnv()
	env.Bind("e", e)
	return env, map[string][]string{"e": {core.ColSrc, core.ColTrg}}
}

func rightLinearTC() *Program {
	return &Program{Rules: []Rule{
		{Head: NewAtom("tc", V("X"), V("Y")), Body: []Atom{NewAtom("e", V("X"), V("Y"))}},
		{Head: NewAtom("tc", V("X"), V("Y")), Body: []Atom{
			NewAtom("e", V("X"), V("Z")), NewAtom("tc", V("Z"), V("Y")),
		}},
	}}
}

func sgProgram() *Program {
	return &Program{Rules: []Rule{
		{Head: NewAtom("sg", V("X"), V("Y")), Body: []Atom{
			NewAtom("e", V("P"), V("X")), NewAtom("e", V("P"), V("Y")),
		}},
		{Head: NewAtom("sg", V("X"), V("Y")), Body: []Atom{
			NewAtom("e", V("P"), V("X")), NewAtom("sg", V("P"), V("Q")), NewAtom("e", V("Q"), V("Y")),
		}},
	}}
}

// tcProgram is the left-linear transitive closure of e.
func tcProgram() *Program {
	return &Program{Rules: []Rule{
		{Head: NewAtom("tc", V("X"), V("Y")), Body: []Atom{NewAtom("e", V("X"), V("Y"))}},
		{Head: NewAtom("tc", V("X"), V("Y")), Body: []Atom{
			NewAtom("tc", V("X"), V("Z")), NewAtom("e", V("Z"), V("Y")),
		}},
	}}
}

func TestSemiNaiveTransitiveClosure(t *testing.T) {
	edb := DB{"e": edgeRel([][2]core.Value{{1, 2}, {2, 3}, {3, 4}})}
	db, stats, err := Eval(tcProgram(), edb)
	if err != nil {
		t.Fatal(err)
	}
	tc := db["tc"]
	want := [][2]core.Value{{1, 2}, {2, 3}, {3, 4}, {1, 3}, {2, 4}, {1, 4}}
	if tc.Len() != len(want) {
		t.Fatalf("tc has %d tuples, want %d: %v", tc.Len(), len(want), tc.Rows())
	}
	for _, p := range want {
		if !tc.Has([]core.Value{p[0], p[1]}) {
			t.Fatalf("missing %v", p)
		}
	}
	if stats.Iterations < 2 {
		t.Fatalf("iterations = %d", stats.Iterations)
	}
}

func TestEvalAgainstMuRA(t *testing.T) {
	// The Datalog TC must equal the µ-RA closure on random graphs.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		var pairs [][2]core.Value
		e := core.NewRelation(core.ColSrc, core.ColTrg)
		for i := 0; i < 30; i++ {
			p := [2]core.Value{core.Value(rng.Intn(9)), core.Value(rng.Intn(9))}
			pairs = append(pairs, p)
			e.Add([]core.Value{p[0], p[1]})
		}
		env := core.NewEnv()
		env.Bind("E", e)
		want, err := core.Eval(core.ClosureLR("X", &core.Var{Name: "E"}), env)
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := Eval(tcProgram(), DB{"e": edgeRel(pairs)})
		if err != nil {
			t.Fatal(err)
		}
		if db["tc"].Len() != want.Len() {
			t.Fatalf("trial %d: datalog %d vs µ-RA %d", trial, db["tc"].Len(), want.Len())
		}
	}
}

func TestValidateRejectsUnboundHead(t *testing.T) {
	p := &Program{Rules: []Rule{
		{Head: NewAtom("p", V("X"), V("Y")), Body: []Atom{NewAtom("e", V("X"), V("Z"))}},
	}}
	if err := p.Validate(); err == nil {
		t.Fatal("expected range-restriction error")
	}
}

func TestSCCOrder(t *testing.T) {
	// q depends on tc; tc must come first.
	prog := tcProgram()
	prog.Rules = append(prog.Rules, Rule{
		Head: NewAtom("q", V("X")),
		Body: []Atom{NewAtom("tc", V("X"), C(4))},
	})
	sccs := SCCs(prog)
	if len(sccs) != 2 {
		t.Fatalf("SCCs = %d, want 2", len(sccs))
	}
	if !sccs[0]["tc"] || !sccs[1]["q"] {
		t.Fatalf("wrong SCC order: %v", sccs)
	}
}

func TestMagicBoundFirstArgRestricts(t *testing.T) {
	// Query tc(1, Y): magic sets must avoid computing the closure of the
	// disconnected component.
	pairs := [][2]core.Value{{1, 2}, {2, 3}}
	for i := core.Value(100); i < 160; i++ {
		pairs = append(pairs, [2]core.Value{i, i + 1})
	}
	edb := DB{"e": edgeRel(pairs)}
	query := NewAtom("tc", C(1), V("Y"))

	full, fullStats, err := Query(tcProgram(), edb, query)
	if err != nil {
		t.Fatal(err)
	}
	magicProg, magicQuery, err := MagicTransform(tcProgram(), query)
	if err != nil {
		t.Fatal(err)
	}
	optimized, optStats, err := Query(magicProg, edb, magicQuery)
	if err != nil {
		t.Fatal(err)
	}
	if optimized.Len() != full.Len() {
		t.Fatalf("magic answers %d ≠ full answers %d", optimized.Len(), full.Len())
	}
	for _, row := range optimized.Rows() {
		if !full.Has(row) {
			t.Fatalf("magic derived spurious %v", row)
		}
	}
	if optStats.Derived >= fullStats.Derived {
		t.Fatalf("magic derived %d tuples, full %d — no restriction happened",
			optStats.Derived, fullStats.Derived)
	}
}

func TestMagicBoundSecondArgDoesNotRestrictLeftLinear(t *testing.T) {
	// The asymmetry the paper exploits (class C2): a binding on the
	// second argument of a left-linear TC cannot be pushed by magic sets;
	// the closure is still fully materialized.
	pairs := [][2]core.Value{}
	for i := core.Value(0); i < 40; i++ {
		pairs = append(pairs, [2]core.Value{i, i + 1})
	}
	edb := DB{"e": edgeRel(pairs)}
	query := NewAtom("tc", V("X"), C(3))
	magicProg, magicQuery, err := MagicTransform(tcProgram(), query)
	if err != nil {
		t.Fatal(err)
	}
	full, fullStats, err := Query(tcProgram(), edb, query)
	if err != nil {
		t.Fatal(err)
	}
	optimized, optStats, err := Query(magicProg, edb, magicQuery)
	if err != nil {
		t.Fatal(err)
	}
	if optimized.Len() != full.Len() {
		t.Fatalf("magic answers %d ≠ full %d", optimized.Len(), full.Len())
	}
	// The whole tc is still derived (within a small tolerance of guard
	// bookkeeping).
	if optStats.Derived < fullStats.Derived {
		t.Fatalf("left-linear fb query should not be restricted: %d < %d",
			optStats.Derived, fullStats.Derived)
	}
}

func TestMagicPreservesAnswersOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 15; trial++ {
		var pairs [][2]core.Value
		for i := 0; i < 25; i++ {
			pairs = append(pairs, [2]core.Value{core.Value(rng.Intn(8)), core.Value(rng.Intn(8))})
		}
		edb := DB{"e": edgeRel(pairs)}
		for _, query := range []Atom{
			NewAtom("tc", C(1), V("Y")),
			NewAtom("tc", V("X"), C(2)),
			NewAtom("tc", C(0), C(5)),
		} {
			full, _, err := Query(tcProgram(), edb, query)
			if err != nil {
				t.Fatal(err)
			}
			mp, mq, err := MagicTransform(tcProgram(), query)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := Query(mp, edb, mq)
			if err != nil {
				t.Fatalf("trial %d query %s: %v\nprogram:\n%s", trial, query, err, mp)
			}
			if got.Len() != full.Len() {
				t.Fatalf("trial %d query %s: magic %d ≠ full %d\nprogram:\n%s",
					trial, query, got.Len(), full.Len(), mp)
			}
		}
	}
}

func TestUCRPQTranslation(t *testing.T) {
	dict := core.NewDict()
	la, lb := dict.Intern("a"), dict.Intern("b")
	triples := core.NewRelation(core.ColSrc, core.ColPred, core.ColTrg)
	add := func(s core.Value, l core.Value, t core.Value) {
		triples.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg}, []core.Value{s, l, t})
	}
	add(1, la, 2)
	add(2, la, 3)
	add(3, lb, 4)
	add(4, lb, 5)
	env := core.NewEnv()
	env.Bind("G", triples)

	queries := []string{
		"?x,?y <- ?x a+ ?y",
		"?x,?y <- ?x a+/b+ ?y",
		"?x,?y <- ?x (a|b)+ ?y",
		"?x <- ?x a+/b #4",
		"?x,?y <- ?x -a/b ?y",
		"?x,?y <- ?x a+ ?y, ?y b ?z",
	}
	for _, qs := range queries {
		q := ucrpq.MustParse(qs)
		// Reference: µ-RA translation evaluated centrally.
		muTerm, err := ucrpq.Translate(q, "G", dict, rpq.LeftToRight)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Eval(muTerm, env)
		if err != nil {
			t.Fatal(err)
		}
		// Datalog translation + magic + evaluation.
		tr := NewTranslator("g", dict)
		prog, queryAtom, err := tr.Translate(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		mp, mq, err := MagicTransform(prog, queryAtom)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Query(mp, EdgeDB("g", triples), mq)
		if err != nil {
			t.Fatalf("%s: %v\n%s", qs, err, mp)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: datalog %d rows ≠ µ-RA %d rows\nprogram:\n%s",
				qs, got.Len(), want.Len(), prog)
		}
	}
}

// TestDecomposablePivot checks that the engine's stable-column analysis
// on compiled terms finds the GPS pivot: the argument every recursive rule
// passes through unchanged.
func TestDecomposablePivot(t *testing.T) {
	_, cols := edgeEnv(nil)
	schema := core.SchemaEnv{"e": core.SortCols(cols["e"])}
	for _, tc := range []struct {
		name   string
		prog   *Program
		stable []string
	}{
		{"left-linear TC", tcProgram(), []string{"p00"}},
		{"right-linear TC", rightLinearTC(), []string{"p01"}},
		{"same generation", sgProgram(), nil},
	} {
		head := tc.prog.Rules[0].Head
		strata, _, err := Compile(tc.prog, head, cols)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := strata[0].Term.(*core.Fixpoint)
		if !ok {
			t.Fatalf("%s: stratum is %s, want a fixpoint", tc.name, strata[0].Term)
		}
		stable, err := core.StableColsOf(fp, schema)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stable, tc.stable) {
			t.Fatalf("%s: stable columns %v, want %v", tc.name, stable, tc.stable)
		}
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	c, err := cluster.New(cluster.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.NewSession(nil)
	defer s.Close()

	for trial := 0; trial < 8; trial++ {
		var pairs [][2]core.Value
		for i := 0; i < 30; i++ {
			pairs = append(pairs, [2]core.Value{core.Value(rng.Intn(9)), core.Value(rng.Intn(9))})
		}
		edb := DB{"e": edgeRel(pairs)}
		env, cols := edgeEnv(pairs)
		for _, tc := range []struct {
			prog *Program
			kind physical.Kind
		}{
			{tcProgram(), physical.Splw}, // decomposable
			{sgProgram(), physical.Gld},  // no pivot: the global loop
		} {
			query := tc.prog.Rules[0].Head
			want, _, err := Query(tc.prog, edb, query)
			if err != nil {
				t.Fatal(err)
			}
			got, rep, err := Run(s, env, cols, tc.prog, query)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(want, got) {
				t.Fatalf("trial %d %s: distributed %d rows ≠ central %d", trial, query.Pred, got.Len(), want.Len())
			}
			if len(rep.Fixpoints) != 1 || rep.Fixpoints[0].Kind != tc.kind {
				t.Fatalf("trial %d %s: fixpoints %+v, want one %s", trial, query.Pred, rep.Fixpoints, tc.kind)
			}
		}
	}
}

func TestDistributedShuffleAccounting(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var pairs [][2]core.Value
	for i := core.Value(0); i < 30; i++ {
		pairs = append(pairs, [2]core.Value{i, i + 1})
	}
	env, cols := edgeEnv(pairs)

	// Decomposable TC under Ps_plw: no shuffle barriers.
	tc := c.NewSession(nil)
	defer tc.Close()
	if _, _, err := Run(tc, env, cols, tcProgram(), NewAtom("tc", V("X"), V("Y"))); err != nil {
		t.Fatal(err)
	}
	if ph := tc.Metrics().Snapshot().ShufflePhases; ph != 0 {
		t.Fatalf("decomposable TC used %d shuffle phases, want 0", ph)
	}

	// Pivot-less SG under Pgld: one barrier per iteration.
	sg := c.NewSession(nil)
	defer sg.Close()
	_, rep, err := Run(sg, env, cols, sgProgram(), NewAtom("sg", V("X"), V("Y")))
	if err != nil {
		t.Fatal(err)
	}
	ph := sg.Metrics().Snapshot().ShufflePhases
	if rep.Iterations() == 0 || int(ph) != rep.Iterations() {
		t.Fatalf("SG: %d shuffle phases for %d Pgld iterations", ph, rep.Iterations())
	}
}

func TestRunRejectsUnsupportedSCCs(t *testing.T) {
	_, cols := edgeEnv(nil)
	evenOdd := &Program{Rules: []Rule{
		{Head: NewAtom("even", V("X")), Body: []Atom{NewAtom("e", V("X"), V("X"))}},
		{Head: NewAtom("odd", V("Y")), Body: []Atom{NewAtom("even", V("X")), NewAtom("e", V("X"), V("Y"))}},
		{Head: NewAtom("even", V("Y")), Body: []Atom{NewAtom("odd", V("X")), NewAtom("e", V("X"), V("Y"))}},
	}}
	nonLinear := &Program{Rules: []Rule{
		{Head: NewAtom("tc", V("X"), V("Y")), Body: []Atom{NewAtom("e", V("X"), V("Y"))}},
		{Head: NewAtom("tc", V("X"), V("Y")), Body: []Atom{
			NewAtom("tc", V("X"), V("Z")), NewAtom("tc", V("Z"), V("Y")),
		}},
	}}
	for _, prog := range []*Program{evenOdd, nonLinear} {
		if _, _, err := Compile(prog, prog.Rules[0].Head, cols); !errors.Is(err, ErrUnsupportedSCC) {
			t.Fatalf("program\n%s compiled with err=%v, want ErrUnsupportedSCC", prog, err)
		}
	}
}

func TestRunLeavesCallerEnvUnchanged(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.NewSession(nil)
	defer s.Close()
	env, cols := edgeEnv([][2]core.Value{{1, 2}, {2, 3}})
	e, _ := env.Lookup("e")
	prog := tcProgram()
	prog.Rules = append(prog.Rules, Rule{Head: NewAtom("q", V("X")), Body: []Atom{NewAtom("tc", V("X"), C(3))}})
	got, _, err := Run(s, env, cols, prog, NewAtom("q", V("X")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("q has %d rows, want 2", got.Len())
	}
	if len(env.Rels) != 1 || env.Rels["e"] != e || e.Len() != 2 {
		t.Fatalf("Run changed the caller's env: %v", env.Rels)
	}
}
