package datalog_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/graphgen"
	"repro/internal/ucrpq"
)

// program is one Datalog program of the paper's experiments, ready to run.
type program struct {
	name  string
	g     *graphgen.Graph
	prog  *datalog.Program
	query datalog.Atom
}

// paperPrograms returns the 67 programs BigDatalog runs in the paper's
// figures: Fig. 7 Q1–Q25 on Yago, Fig. 8 Q26–Q50 on Uniprot and Fig. 12's
// a1+/…/an+ for n = 2…10, each translated and magic-set transformed, plus
// the four C7 programs on two Fig. 11 graphs.
func paperPrograms(t *testing.T) []program {
	var out []program
	ucrpqProgram := func(name string, g *graphgen.Graph, text string) {
		q, err := ucrpq.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, atom, err := datalog.NewTranslator(benchkit.EdgeRelName, g.Dict).Translate(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mp, mq, err := datalog.MagicTransform(prog, atom)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, program{name, g, mp, mq})
	}
	yago := graphgen.Yago(150, 3)
	for _, q := range benchkit.YagoQueries {
		ucrpqProgram(q.ID, yago, q.Text)
	}
	uniprot := graphgen.Uniprot(800, 4)
	for _, q := range benchkit.UniprotQueries {
		ucrpqProgram(q.ID, uniprot, benchkit.InstantiateUniprot(q).Text)
	}
	labels := make([]string, 10)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i)
	}
	er := graphgen.ErdosRenyi(200, 3.0/200, labels, 1)
	for n := 2; n <= 10; n++ {
		expr := labels[0] + "+"
		for i := 1; i < n; i++ {
			expr += "/" + labels[i] + "+"
		}
		ucrpqProgram(fmt.Sprintf("n=%d", n), er, "?x,?y <- ?x "+expr+" ?y")
	}
	for _, name := range []string{"AcTree", "Ragusan"} {
		g := graphgen.SGGraph(name, 120, 1)
		anbn, anbnQ := benchkit.AnBnProgram(benchkit.EdgeRelName, g.Dict, "a", "b")
		sg, sgQ := benchkit.SGProgram(benchkit.EdgeRelName)
		fsg, fsgQ, err := datalog.MagicTransform(sg, benchkit.FilteredSGQuery(g.Dict, "a"))
		if err != nil {
			t.Fatal(err)
		}
		jsg, jsgQ := benchkit.JoinedSGProgram(benchkit.EdgeRelName, "P")
		out = append(out,
			program{"anbn/" + name, g, anbn, anbnQ},
			program{"SG/" + name, g, sg, sgQ},
			program{"FilteredSG/" + name, g, fsg, fsgQ},
			program{"JoinedSG/" + name, g, jsg, jsgQ})
	}
	return out
}

func rowStrings(rows [][]core.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestRunMatchesQueryOnPaperPrograms: on every program of the paper's
// BigDatalog experiments, the compiled program on the engine returns
// exactly the reference evaluator's rows.
func TestRunMatchesQueryOnPaperPrograms(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.NewSession(nil)
	defer s.Close()
	progs := paperPrograms(t)
	if len(progs) != 67 {
		t.Fatalf("%d programs, want 67", len(progs))
	}
	for _, p := range progs {
		pset := benchkit.PredSetRelation(p.g.Dict, []string{"a", "b"})
		env := p.g.Env(benchkit.EdgeRelName)
		env.Bind("P", pset)
		cols := datalog.EdgeCols(benchkit.EdgeRelName)
		cols["P"] = []string{core.ColPred}
		edb := datalog.EdgeDB(benchkit.EdgeRelName, p.g.Triples)
		edb["P"] = datalog.NewRel(1)
		for i := 0; i < pset.Len(); i++ {
			edb["P"].Add(pset.RowAt(i))
		}

		want, _, err := datalog.Query(p.prog, edb, p.query)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got, _, err := datalog.Run(s, env, cols, p.prog, p.query)
		if err != nil {
			t.Fatalf("%s: %v\n%s", p.name, err, p.prog)
		}
		gotRows := make([][]core.Value, got.Len())
		for i := range gotRows {
			gotRows[i] = got.RowAt(i)
		}
		w, g := rowStrings(want.Rows()), rowStrings(gotRows)
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("%s: Run %d rows ≠ Query %d rows\n%s", p.name, len(g), len(w), p.prog)
		}
	}
}
