package distmura

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
)

func openTest(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		checkBroadcastResidency(t, e)
		e.Close()
	})
	return e
}

func addChain(e *Engine, pred string, names ...string) {
	for i := 0; i+1 < len(names); i++ {
		e.AddTriple(names[i], pred, names[i+1])
	}
}

// collect is the test shorthand for the one-shot query path.
func collect(t *testing.T, e *Engine, query string, opts ...QueryOption) *Result {
	t.Helper()
	res, err := e.QueryCollect(context.Background(), query, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQuickstartFlow(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	addChain(e, "knows", "alice", "bob", "carol", "dave")
	res := collect(t, e, "?x,?y <- ?x knows+ ?y")
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	if len(res.Columns) != 2 {
		t.Fatalf("columns = %v", res.Columns)
	}
	var flat []string
	for _, r := range res.Rows {
		flat = append(flat, strings.Join(r, "→"))
	}
	sort.Strings(flat)
	if flat[0] != "alice→bob" {
		t.Fatalf("unexpected first row %q (all: %v)", flat[0], flat)
	}
	if res.Stats.Plan == "none" || res.Stats.Seconds <= 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestRowsCursor(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	addChain(e, "knows", "alice", "bob", "carol", "dave")
	rows, err := e.Query(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rows.Len() != 6 {
		t.Fatalf("Len = %d, want 6", rows.Len())
	}
	if got := rows.Columns(); len(got) != 2 {
		t.Fatalf("columns = %v", got)
	}
	n := 0
	for rows.Next() {
		var x, y string
		if err := rows.Scan(&x, &y); err != nil {
			t.Fatal(err)
		}
		if x == "" || y == "" {
			t.Fatalf("empty value decoded at row %d", n)
		}
		if s := rows.Strings(); s[0] != x || s[1] != y {
			t.Fatalf("Strings %v disagrees with Scan %q,%q", s, x, y)
		}
		if len(rows.Values()) != 2 {
			t.Fatalf("Values arity = %d", len(rows.Values()))
		}
		n++
	}
	if n != 6 {
		t.Fatalf("cursor yielded %d rows, want 6", n)
	}
	if rows.Next() {
		t.Fatal("Next after exhaustion should stay false")
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if st := rows.Stats(); st.Plan == "none" || st.Seconds <= 0 {
		t.Fatalf("stats not populated on the cursor: %+v", st)
	}
	// Scan before Next on a fresh cursor errors instead of crashing.
	rows2, err := e.Query(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	var a, b string
	if err := rows2.Scan(&a, &b); err == nil {
		t.Fatal("Scan before Next should error")
	}
}

func TestQueryPlansAgree(t *testing.T) {
	e := openTest(t, Options{Workers: 3})
	g := graphgen.Yago(200, 17)
	e.UseGraph(g)
	query := "?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon"
	var counts []int
	for _, p := range []Plan{PlanAuto, PlanGld, PlanSplw, PlanPgplw} {
		res := collect(t, e, query, WithPlan(p))
		counts = append(counts, len(res.Rows))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("plan results disagree: %v", counts)
		}
	}
	// Unoptimized run agrees too.
	res := collect(t, e, query, WithoutOptimization())
	if len(res.Rows) != counts[0] {
		t.Fatalf("unoptimized rows %d ≠ %d", len(res.Rows), counts[0])
	}
}

// TestFixpointWithoutPhiReportsItsPlan pins that a fixpoint with no φ
// branch reports the plan Auto ran, never "auto" itself.
func TestFixpointWithoutPhiReportsItsPlan(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	addChain(e, "knows", "alice", "bob")
	rows, err := e.QueryTerm(context.Background(), &core.Fixpoint{X: "X", Body: &core.Var{Name: "G"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Stats().Plan; got != "[Ps_plw]" {
		t.Fatalf("plan = %q, want [Ps_plw]", got)
	}
}

// TestPlanNames pins the names the plans print as.
func TestPlanNames(t *testing.T) {
	want := map[Plan]string{PlanAuto: "auto", PlanGld: "Pgld", PlanSplw: "Ps_plw", PlanPgplw: "Ppg_plw"}
	for p, name := range want {
		if p.String() != name {
			t.Fatalf("Plan(%d).String() = %q, want %q", int(p), p.String(), name)
		}
	}
}

func TestStatsExposeCommunication(t *testing.T) {
	e := openTest(t, Options{Workers: 3})
	g := graphgen.Yago(200, 18)
	e.UseGraph(g)
	gld := collect(t, e, "?x,?y <- ?x hasChild+ ?y", WithPlan(PlanGld))
	plw := collect(t, e, "?x,?y <- ?x hasChild+ ?y", WithPlan(PlanSplw))
	if gld.Stats.ShufflePhases <= plw.Stats.ShufflePhases {
		t.Fatalf("Pgld shuffles (%d) not more than Pplw (%d)",
			gld.Stats.ShufflePhases, plw.Stats.ShufflePhases)
	}
	if !plw.Stats.Partitioned {
		t.Fatal("Pplw on hasChild+ should use stable-column partitioning")
	}
}

func TestExplain(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	g := graphgen.Yago(150, 19)
	e.UseGraph(g)
	ex, err := e.Explain(context.Background(), "?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon")
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanSpace < 2 {
		t.Fatalf("plan space = %d", ex.PlanSpace)
	}
	if !strings.Contains(ex.Best, "µ(") {
		t.Fatalf("best plan looks wrong: %s", ex.Best)
	}
	if len(ex.Alternates) == 0 {
		t.Fatal("no alternates reported")
	}
}

// TestEdgeStatsOncePerGraphState: optimizations at one graph state share
// one statistics computation; an insert, a delete and a graph swap each
// force a new one.
func TestEdgeStatsOncePerGraphState(t *testing.T) {
	e := openTest(t, Options{Workers: 2, PlanCacheSize: -1})
	e.UseGraph(graphgen.Yago(150, 19))
	const q = "?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon"
	computed := func() int {
		e.stats.mu.Lock()
		defer e.stats.mu.Unlock()
		return e.stats.computed
	}
	optimize := func() {
		t.Helper()
		if _, err := e.Explain(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		if _, err := e.QueryCollect(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	optimize()
	if n := computed(); n != 1 {
		t.Fatalf("two optimizations at one graph state computed statistics %d times", n)
	}
	for i, mutate := range []func(){
		func() { e.AddTriple("stats-a", "actedIn", "stats-b") },
		func() { e.DeleteTriple("stats-a", "actedIn", "stats-b") },
		func() { e.UseGraph(graphgen.Yago(150, 20)) },
	} {
		mutate()
		optimize()
		if n := computed(); n != i+2 {
			t.Fatalf("after mutation %d: statistics computed %d times, want %d", i, n, i+2)
		}
	}
}

// TestExplainRunsQuerySelection: Explain reports the plan and plan space
// Query executes.
func TestExplainRunsQuerySelection(t *testing.T) {
	e := openTest(t, Options{Workers: 2, PlanCacheSize: -1})
	e.UseGraph(graphgen.Yago(150, 19))
	for _, q := range []string{
		"?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon",
		"?x,?y <- ?x isLocatedIn+/dealsWith+ ?y",
	} {
		ex, err := e.Explain(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		best, planSpace, _, err := e.optimize(q, e.queryConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Best != best.String() || ex.PlanSpace != planSpace {
			t.Fatalf("%s: Explain chose %s of %d plans, Query %s of %d", q, ex.Best, ex.PlanSpace, best, planSpace)
		}
	}
}

func TestLoadTSVAndStats(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	tsv := "a\tp\tb\nb\tp\tc\na\tq\tc\n"
	if err := e.LoadTSV(strings.NewReader(tsv)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Triples != 3 || st.Predicates["p"] != 2 || st.Predicates["q"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	res := collect(t, e, "?x <- a p+ ?x")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestLoadTSVMergesWithAddTriple is the regression test for LoadTSV
// discarding the graph built so far: triples added via AddTriple (and via
// earlier LoadTSV calls) must survive a bulk load, queryable together.
func TestLoadTSVMergesWithAddTriple(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	e.AddTriple("alice", "knows", "bob")
	if err := e.LoadTSV(strings.NewReader("bob\tknows\tcarol\n")); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadTSV(strings.NewReader("carol\tknows\tdave\nalice\tknows\tbob\n")); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Triples != 3 || st.Predicates["knows"] != 3 {
		t.Fatalf("stats after merge = %+v, want 3 knows triples", st)
	}
	res := collect(t, e, "?x <- alice knows+ ?x")
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0]] = true
	}
	for _, want := range []string{"bob", "carol", "dave"} {
		if !got[want] {
			t.Fatalf("closure misses %q after TSV merge: %v", want, res.Rows)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	e.AddTriple("a", "p", "b")
	ctx := context.Background()
	if _, err := e.Query(ctx, "not a query"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := e.Query(ctx, "?z <- ?x p ?y"); err == nil {
		t.Fatal("expected head-variable error")
	}
}

func TestTCPEngine(t *testing.T) {
	e := openTest(t, Options{Workers: 2, Transport: TransportTCP})
	addChain(e, "r", "n1", "n2", "n3", "n4", "n5")
	res := collect(t, e, "?x,?y <- ?x r+ ?y")
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	if res.Stats.NetworkBytes == 0 {
		t.Fatal("no network bytes over TCP")
	}
}

func TestUnionQueries(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	addChain(e, "a", "n1", "n2", "n3")
	addChain(e, "b", "m1", "m2", "m3")
	res := collect(t, e, "?x,?y <- ?x a+ ?y UNION ?x,?y <- ?x b+ ?y")
	// 3 a-pairs + 3 b-pairs.
	if len(res.Rows) != 6 {
		t.Fatalf("union rows = %d, want 6", len(res.Rows))
	}
	// Mismatched heads error.
	if _, err := e.Query(context.Background(), "?x <- ?x a ?y UNION ?y <- ?x a ?y"); err == nil {
		t.Fatal("mismatched union heads accepted")
	}
}
