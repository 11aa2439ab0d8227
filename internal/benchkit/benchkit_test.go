package benchkit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/graphgen"
	"repro/internal/physical"
	"repro/internal/ucrpq"
)

func smallBudget() Budget {
	return Budget{Timeout: 30 * time.Second, MaxMessages: 2_000_000, Workers: 2, MaxPlans: 40}
}

func TestAllQueriesParse(t *testing.T) {
	for _, q := range YagoQueries {
		if _, err := PrepareMuRAQueryText(q.Text); err != nil {
			t.Fatalf("%s (%q): %v", q.ID, q.Text, err)
		}
	}
	for _, q := range UniprotQueries {
		iq := InstantiateUniprot(q)
		if _, err := PrepareMuRAQueryText(iq.Text); err != nil {
			t.Fatalf("%s (%q): %v", q.ID, iq.Text, err)
		}
		if strings.Contains(iq.Text, " C ") || strings.HasSuffix(iq.Text, " C") {
			t.Fatalf("%s: constant C not instantiated: %q", q.ID, iq.Text)
		}
	}
}

func TestInstantiateUniprotTypes(t *testing.T) {
	if got := UniprotConstFor("Q39"); got != "pubn0" {
		t.Fatalf("Q39 const = %s", got)
	}
	if got := UniprotConstFor("Q41"); got != "jour0" {
		t.Fatalf("Q41 const = %s", got)
	}
	if got := UniprotConstFor("Q28"); got != "prot0" {
		t.Fatalf("Q28 const = %s", got)
	}
}

// TestSystemsAgreeOnYagoQueries is the central integration test: all three
// engines answer a representative sample of Fig. 7 queries identically on
// a small Yago-like graph.
func TestSystemsAgreeOnYagoQueries(t *testing.T) {
	g := graphgen.Yago(150, 3)
	sample := []string{"Q1", "Q3", "Q5", "Q8", "Q9", "Q12", "Q16", "Q17", "Q22", "Q24"}
	want := map[string]bool{}
	for _, q := range YagoQueries {
		want[q.ID] = false
	}
	b := smallBudget()
	for _, q := range YagoQueries {
		if !contains(sample, q.ID) {
			continue
		}
		mu := RunMuRA(g, q.Text, b, MuRAOptions{})
		if mu.Crashed || mu.TimedOut {
			t.Fatalf("%s: Dist-µ-RA failed: %v", q.ID, mu.Err)
		}
		bd := RunBigDatalog(g, q.Text, b)
		if bd.Crashed || bd.TimedOut {
			t.Fatalf("%s: BigDatalog failed: %v", q.ID, bd.Err)
		}
		gx := RunGraphX(g, q.Text, b)
		if gx.Crashed || gx.TimedOut {
			t.Fatalf("%s: GraphX failed: %v", q.ID, gx.Err)
		}
		if mu.Rows != bd.Rows || mu.Rows != gx.Rows {
			t.Fatalf("%s: row counts disagree: µ-RA=%d datalog=%d graphx=%d",
				q.ID, mu.Rows, bd.Rows, gx.Rows)
		}
		if mu.Rows == 0 {
			t.Logf("%s: empty result (weak test)", q.ID)
		}
	}
}

func TestSystemsAgreeOnUniprotQueries(t *testing.T) {
	g := graphgen.Uniprot(800, 4)
	sample := []string{"Q26", "Q28", "Q30", "Q33", "Q37", "Q41", "Q45", "Q49"}
	b := smallBudget()
	nonEmpty := 0
	for _, q := range UniprotQueries {
		if !contains(sample, q.ID) {
			continue
		}
		iq := InstantiateUniprot(q)
		mu := RunMuRA(g, iq.Text, b, MuRAOptions{})
		if mu.Crashed || mu.TimedOut {
			t.Fatalf("%s: Dist-µ-RA failed: %v", q.ID, mu.Err)
		}
		bd := RunBigDatalog(g, iq.Text, b)
		if bd.Crashed || bd.TimedOut {
			t.Fatalf("%s: BigDatalog failed: %v", q.ID, bd.Err)
		}
		if mu.Rows != bd.Rows {
			t.Fatalf("%s: µ-RA=%d datalog=%d", q.ID, mu.Rows, bd.Rows)
		}
		if mu.Rows > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("only %d sample queries returned rows; generator too sparse", nonEmpty)
	}
}

// TestC7SystemsAgree checks anbn and the SG family across µ-RA, Datalog
// and (on a tree, where it terminates) Pregel.
func TestC7SystemsAgree(t *testing.T) {
	g := graphgen.SGGraph("AcTree", 120, 5)
	s := TestScale()
	s.Workers = 2
	for _, query := range []string{"anbn", "SG", "FilteredSG", "JoinedSG"} {
		mu, bd, gx := runC7(g, query, s)
		if mu.Crashed || mu.TimedOut {
			t.Fatalf("%s: µ-RA failed: %v", query, mu.Err)
		}
		if bd.Crashed || bd.TimedOut {
			t.Fatalf("%s: datalog failed: %v", query, bd.Err)
		}
		if mu.Rows != bd.Rows {
			t.Fatalf("%s: µ-RA=%d datalog=%d", query, mu.Rows, bd.Rows)
		}
		// Pregel computes per-label SG; FilteredSG is directly comparable.
		if query == "FilteredSG" {
			if gx.Crashed || gx.TimedOut {
				t.Fatalf("FilteredSG: pregel failed on a tree: %v", gx.Err)
			}
			if gx.Rows != mu.Rows {
				t.Fatalf("FilteredSG: pregel=%d µ-RA=%d", gx.Rows, mu.Rows)
			}
		}
		if mu.Rows == 0 && query != "anbn" {
			t.Fatalf("%s: empty result on a tree", query)
		}
	}
}

// TestC7SGTermMatchesDatalogOnRandomGraphs strengthens the SG equivalence
// with labeled ER graphs (cycles included).
func TestC7SGTermMatchesDatalogOnRandomGraphs(t *testing.T) {
	g := graphgen.ErdosRenyi(60, 0.03, []string{"a", "b"}, 7)
	env := g.Env(EdgeRelName)
	want, err := core.Eval(SGTerm(EdgeRelName), env)
	if err != nil {
		t.Fatal(err)
	}
	prog, atom := SGProgram(EdgeRelName)
	edb := datalog.EdgeDB(EdgeRelName, g.Triples)
	got, _, err := datalog.Query(prog, edb, atom)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("SG: datalog=%d µ-RA=%d", got.Len(), want.Len())
	}
}

func TestFilteredSGUsesStablePredColumn(t *testing.T) {
	// The FilteredSG term must expose pred as a stable column so the
	// planner partitions by it and skips the final distinct.
	g := graphgen.SGGraph("AcTree", 80, 6)
	env := g.Env(EdgeRelName)
	term := SGTerm(EdgeRelName)
	fp := term.(*core.Fixpoint)
	d, err := core.Decompose(fp)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := core.StableCols(d, env.SchemaEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !core.ColsEqual(stable, []string{core.ColPred}) {
		t.Fatalf("SG stable cols = %v, want [pred]", stable)
	}
}

func TestRunMuRAPlanReporting(t *testing.T) {
	g := graphgen.Yago(120, 8)
	b := smallBudget()
	res := RunMuRA(g, "?x,?y <- ?x hasChild+ ?y", b, MuRAOptions{Force: physical.Gld})
	if res.Crashed {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !strings.Contains(res.Info, "Pgld") {
		t.Fatalf("info %q does not mention the forced plan", res.Info)
	}
	if res.Metrics.ShufflePhases == 0 {
		t.Fatal("Pgld run recorded no shuffles")
	}
}

// TestBudgetTimeoutProducesTimeout runs a task that only the budget's
// deadline can end — worker 0 exchanges with a peer that never sends — so
// the session's context always wins and the run must be reported as a
// timeout.
func TestBudgetTimeoutProducesTimeout(t *testing.T) {
	b := Budget{Timeout: time.Millisecond, Workers: 2}
	aborted := make(chan error, 1)
	res := runWithBudget(b, cluster.TransportChan, func(s *cluster.Session) (*Result, error) {
		err := s.RunPhase(func(ctx *cluster.Ctx) error {
			if ctx.WorkerID() != 0 {
				return nil
			}
			_, err := ctx.Exchange(core.NewRelation(core.ColSrc), nil)
			return err
		})
		aborted <- err
		return &Result{}, err
	})
	if !res.TimedOut || res.Cell() != "T/O" {
		t.Fatalf("run outliving its budget reported as %q (%+v)", res.Cell(), res)
	}
	if err := <-aborted; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked run aborted with %v, want the session's deadline", err)
	}
}

// TestBudgetTimeoutStopsEverySystem: a Dist-µ-RA, BigDatalog or GraphX run
// that outlives its budget stops at its session's next barrier, fixpoint
// iteration or superstep, and the call that ran it reports the timeout.
// Nothing of the run is left behind: every memory gauge is back at zero
// and, once the cluster is closed, no goroutine of the run is alive.
func TestBudgetTimeoutStopsEverySystem(t *testing.T) {
	if core.SpillSupported() != nil {
		t.Skip("a memory budget needs spill runs")
	}
	// The closure of a 300-edge chain takes one iteration or superstep per
	// edge: far more than the budget's 2 ms.
	g := graphgen.NewGraph("chain")
	for i := 0; i < 300; i++ {
		g.Add(fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", i+1))
	}
	const query = "?x,?y <- ?x a+ ?y"
	q := ucrpq.MustParse(query)
	prep, err := PrepareMuRA(g, query, smallBudget(), MuRAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog, atom, err := datalog.NewTranslator(EdgeRelName, g.Dict).Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	env := g.Env(EdgeRelName)
	for _, sys := range []struct {
		name string
		f    run
	}{
		{"Dist-µ-RA", muraRun(env, prep.Best, MuRAOptions{Force: physical.Gld})},
		{"BigDatalog", datalogRun(env, datalog.EdgeCols(EdgeRelName), prog, atom)},
		{"GraphX", graphXRun(g, q, 0)},
	} {
		t.Run(sys.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			c, err := cluster.New(cluster.Config{Workers: 2, TaskMemBytes: 1 << 16, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			res := runOn(c, Budget{Timeout: 2 * time.Millisecond}, sys.f)
			if !res.TimedOut || res.Err != nil {
				t.Errorf("run past its budget reported as %q (err %v)", res.Cell(), res.Err)
			}
			for i, gauge := range append(c.Gauges(), c.DriverGauge()) {
				if used := gauge.Used(); used != 0 {
					t.Errorf("gauge %d holds %d B after the timed-out run", i, used)
				}
			}
			c.Close()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines outlive the run, %d before it", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

func TestTablePrint(t *testing.T) {
	tbl := &Table{Title: "demo", Columns: []string{"a", "b"}}
	tbl.Add("row1", "1.0", "2.0")
	tbl.Add("row2", "X", "T/O")
	tbl.Notes = append(tbl.Notes, "a note")
	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "row1", "T/O", "a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// PrepareMuRAQueryText only parses (helper for the parse-all test).
func PrepareMuRAQueryText(text string) (string, error) {
	q, err := ucrpq.Parse(text)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}
