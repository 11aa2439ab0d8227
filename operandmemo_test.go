package distmura

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/rewrite"
)

// memoQuery's plan joins ρ(knows) with ρ(knows+) on the driver: the
// build side of that one glue join is the µ-containing operand
// ρ[src→@m](µ…), which the operand memo keeps with its index.
const memoQuery = "?x,?y <- ?x knows/knows+ ?y"

// memoEngines opens an engine with the caches on and a cache-disabled
// reference over the same graph.
func memoEngines(t *testing.T, opts Options) (*Engine, *Engine) {
	t.Helper()
	g := subTestGraph()
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	eng.UseGraph(g)
	ref, err := Open(Options{Workers: 2, DisableSubResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	ref.UseGraph(g)
	return eng, ref
}

// TestOperandMemoWarmQuery: the second identical query derives no
// operand and builds no driver index — every index over a memoized
// operand charges the memo's gauge as it is built, so an unchanged gauge
// means none was — and still reads as a sub-result hit.
func TestOperandMemoWarmQuery(t *testing.T) {
	eng, ref := memoEngines(t, Options{Workers: 2})
	want, _ := collectSorted(t, ref, memoQuery)
	cold, _ := collectSorted(t, eng, memoQuery)
	sameRows(t, "cold", cold, want)
	before := eng.OperandMemoStats()
	if before.Misses == 0 {
		t.Fatalf("cold query published no operand: %+v", before)
	}
	warm, stats := collectSorted(t, eng, memoQuery)
	sameRows(t, "warm", warm, want)
	after := eng.OperandMemoStats()
	if after.Misses != before.Misses || after.Hits <= before.Hits {
		t.Errorf("warm query derived operands again: before %+v, after %+v", before, after)
	}
	if after.Bytes != before.Bytes || after.Entries != before.Entries {
		t.Errorf("warm query built driver indexes or entries: %d B in %d entries, then %d B in %d",
			before.Bytes, before.Entries, after.Bytes, after.Entries)
	}
	if stats.Plan != "[cached]" || stats.SubResultHits == 0 {
		t.Errorf("warm query reads plan %q with %d sub-result hits, want [cached] and > 0", stats.Plan, stats.SubResultHits)
	}
}

// TestOperandMemoFootprint: a write to a predicate the operand reads
// drops the entry, and the next query returns the new rows; a write to an
// unrelated predicate keeps it.
func TestOperandMemoFootprint(t *testing.T) {
	eng, ref := memoEngines(t, Options{Workers: 2})
	collectSorted(t, eng, memoQuery)

	eng.AddTriple("m40", "likes", "m41")
	before := eng.OperandMemoStats()
	got, _ := collectSorted(t, eng, memoQuery)
	want, _ := collectSorted(t, ref, memoQuery)
	sameRows(t, "after an unrelated write", got, want)
	after := eng.OperandMemoStats()
	if after.Misses != before.Misses || after.Hits == before.Hits {
		t.Errorf("a write to likes dropped a knows operand: before %+v, after %+v", before, after)
	}

	eng.AddTriple("n40", "knows", "fresh")
	before = after
	got, _ = collectSorted(t, eng, memoQuery)
	want, _ = collectSorted(t, ref, memoQuery)
	sameRows(t, "after a knows write", got, want)
	if !strings.Contains(strings.Join(got, "\n"), "fresh") {
		t.Error("the rows after the write do not reach the new edge")
	}
	after = eng.OperandMemoStats()
	if after.Misses == before.Misses {
		t.Errorf("a write to knows left its operand in the memo: before %+v, after %+v", before, after)
	}
}

// TestOperandMemoFlushedByUseGraph: replacing the graph empties the memo.
func TestOperandMemoFlushedByUseGraph(t *testing.T) {
	eng, ref := memoEngines(t, Options{Workers: 2})
	collectSorted(t, eng, memoQuery)
	if st := eng.OperandMemoStats(); st.Entries == 0 || st.Misses == 0 {
		t.Fatalf("nothing memoized before UseGraph: %+v", st)
	}
	eng.UseGraph(ref.Graph())
	if st := eng.OperandMemoStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("UseGraph left %d entries, %d B", st.Entries, st.Bytes)
	}
	before := eng.OperandMemoStats()
	got, _ := collectSorted(t, eng, memoQuery)
	want, _ := collectSorted(t, ref, memoQuery)
	sameRows(t, "after UseGraph", got, want)
	if after := eng.OperandMemoStats(); after.Misses == before.Misses {
		t.Errorf("an operand survived UseGraph: before %+v, after %+v", before, after)
	}
}

// TestOperandMemoServesRoot: a root that is not a chain of renames over a
// fixpoint — π̃ over a µ, and memoQuery's plan, a π̃ over a join with a µ
// side — is an operand-memo entry. The warm query is one memo hit and no
// miss: it runs no iteration, reads as [cached] and returns the
// cache-disabled engine's rows. A write to a predicate the root reads
// makes the next query derive it again, with the new rows; a write to an
// unrelated predicate leaves it served. A forced plan is never served the
// kept root, and without the sub-result cache the root is not kept.
func TestOperandMemoServesRoot(t *testing.T) {
	for _, tc := range []struct {
		name string
		root func(t *testing.T, e *Engine) core.Term
	}{
		{"π̃ over µ", func(t *testing.T, e *Engine) core.Term {
			knows, _ := e.Graph().Dict.Lookup("knows")
			return core.NewAntiProject(core.ClosureLR("X", core.EdgeRel(edgeRel, knows)), core.ColSrc)
		}},
		{"memoQuery's join", func(t *testing.T, e *Engine) core.Term {
			plan, _, _, err := e.optimize(memoQuery, e.queryConfig(nil))
			if err != nil {
				t.Fatal(err)
			}
			return plan
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, ref := memoEngines(t, Options{Workers: 2})
			root := tc.root(t, eng)
			if _, base := core.PeelRenames(root); !containsFixpoint(root) || isFixpoint(base) {
				t.Fatalf("%s contains no fixpoint, or is a chain of renames over one", root)
			}
			run := func(e *Engine, opts ...QueryOption) ([]string, QueryStats) {
				t.Helper()
				rows, err := e.QueryTerm(context.Background(), root, nil, opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := rows.Collect()
				if err != nil {
					t.Fatal(err)
				}
				return rendered(res), res.Stats
			}
			want, _ := run(ref)
			cold, _ := run(eng)
			sameSet(t, "cold", cold, want)
			warm := func(what string) {
				t.Helper()
				before := eng.OperandMemoStats()
				got, st := run(eng)
				sameSet(t, what, got, want)
				after := eng.OperandMemoStats()
				if after.Hits != before.Hits+1 || after.Misses != before.Misses {
					t.Errorf("%s: memo %+v, then %+v; want one hit, no miss", what, before, after)
				}
				if st.Iterations != 0 || st.Plan != "[cached]" {
					t.Errorf("%s: %d iterations, plan %q; want none, [cached]", what, st.Iterations, st.Plan)
				}
			}
			warm("warm")
			eng.AddTriple("m40", "likes", "m41")
			warm("after an unrelated write")

			eng.AddTriple("n40", "knows", "fresh")
			before := eng.OperandMemoStats()
			got, _ := run(eng)
			want, _ = run(ref)
			sameSet(t, "after a knows write", got, want)
			if !strings.Contains(strings.Join(got, "\n"), "fresh") {
				t.Error("the rows after the write do not reach the new edge")
			}
			if after := eng.OperandMemoStats(); after.Misses == before.Misses {
				t.Errorf("a write to knows left the root in the memo: before %+v, after %+v", before, after)
			}

			got, st := run(eng, WithPlan(PlanSplw))
			sameSet(t, "forced plan", got, want)
			if st.Iterations == 0 || st.Plan != "[Ps_plw]" {
				t.Errorf("forced plan: %d iterations, plan %q; want its fixpoints run under Ps_plw", st.Iterations, st.Plan)
			}
			if _, st := run(ref); st.Iterations == 0 {
				t.Error("the cache-disabled engine ran no iteration")
			}
			if ref.operands.Get(rewrite.Fingerprint(root), snapshotFootprint(ref.graph, root).stamp()) != nil {
				t.Error("the memo keeps the root without the sub-result cache")
			}
		})
	}
}

// TestOperandMemoEviction: under a one-byte budget every operand the
// memo keeps or serves evicts all the others, with their index charges,
// so the memo holds the one most recently used, over budget: the first
// run keeps the fixpoint's seed, then the µ result, which evicts the
// seed, then the join side that contains the fixpoint, which evicts the
// µ result, then the query's root, which evicts the join side and serves
// every later run with the same rows.
func TestOperandMemoEviction(t *testing.T) {
	eng, ref := memoEngines(t, Options{Workers: 2, SubResultCacheBytes: 1})
	want, _ := collectSorted(t, ref, memoQuery)
	const runs = 3
	for i := 0; i < runs; i++ {
		got, _ := collectSorted(t, eng, memoQuery)
		sameRows(t, fmt.Sprintf("evicted run %d", i), got, want)
	}
	st := eng.OperandMemoStats()
	if st.Misses != 4 || st.Evictions != 3 || st.Hits != runs-1 {
		t.Errorf("memo %+v; want 4 entries derived, the 3 colder evicted, the root serving %d runs", st, runs-1)
	}
	if st.Entries != 1 || st.Bytes <= 1 {
		t.Errorf("memo holds %d entries of %d B, want the one most recently used, over budget", st.Entries, st.Bytes)
	}
}

// TestOperandMemoOneBudget: µ results and operands share the driver
// store's one budget. The closure's plan keeps two entries, its seed and
// its µ result, each of which fits the budget while both do not: the
// store evicts the seed to keep the µ result, and never holds more than
// the budget.
func TestOperandMemoOneBudget(t *testing.T) {
	const q = "?x,?y <- ?x knows+ ?y"
	_, ref := memoEngines(t, Options{Workers: 2})
	want, _ := collectSorted(t, ref, q)
	row := core.AccRowBytes(2)
	mu := int64(len(want)) * row
	seed := int64(ref.Stats().Predicates["knows"]) * row
	budget := max(mu, seed) + min(mu, seed)/2
	eng, _ := memoEngines(t, Options{Workers: 2, SubResultCacheBytes: budget})
	for i := 0; i < 2; i++ {
		got, _ := collectSorted(t, eng, q)
		sameRows(t, fmt.Sprintf("run %d", i), got, want)
	}
	st := eng.OperandMemoStats()
	if st.Bytes > budget {
		t.Errorf("the store holds %d B, over its %d B budget (µ result %d B, seed %d B)", st.Bytes, budget, mu, seed)
	}
	if st.Evictions == 0 || st.Entries != 1 {
		t.Errorf("store %+v; want the seed evicted to keep the µ result", st)
	}
}

// TestOperandMemoEmptiedByClose: closing the engine empties the driver
// store — µ results, operands and roots — and leaves its counters
// readable.
func TestOperandMemoEmptiedByClose(t *testing.T) {
	eng, _ := memoEngines(t, Options{Workers: 2})
	collectSorted(t, eng, "?x,?y <- ?x knows+ ?y")
	collectSorted(t, eng, memoQuery)
	if st := eng.OperandMemoStats(); st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("nothing kept before Close: %+v", st)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st := eng.OperandMemoStats()
	if st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("Close left %d B in %d entries", st.Bytes, st.Entries)
	}
	if st.Misses == 0 || eng.SubResultCacheStats().Misses == 0 {
		t.Errorf("Close reset the counters: %+v, %+v", st, eng.SubResultCacheStats())
	}
}

// TestOperandMemoConcurrentReaders: four clients run the Yago pool in
// their own orders against one engine, sharing operand entries and their
// indexes, and every result equals a cache-disabled engine's. The later
// round is one memo hit per query, and nothing is derived again: a query
// whose root is not a chain of renames over a fixpoint reads its root
// from the memo, any other the µ result its root renames.
func TestOperandMemoConcurrentReaders(t *testing.T) {
	skip := map[string]bool{"Q5": true, "Q11": true, "Q12": true, "Q13": true, "Q14": true, "Q15": true, "Q20": true}
	var pool []string
	for _, q := range benchkit.YagoQueries {
		if !skip[q.ID] {
			pool = append(pool, q.Text)
		}
	}
	g := graphgen.Yago(300, 11)
	ref, err := Open(Options{Workers: 2, DisableSubResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.UseGraph(g)
	want := make(map[string][]string, len(pool))
	for _, q := range pool {
		want[q], _ = collectSorted(t, ref, q)
	}

	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(g)
	roots := 0 // pool queries whose root the memo keeps
	for _, q := range pool {
		plan, _, _, err := eng.optimize(q, eng.queryConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, base := core.PeelRenames(plan); !isFixpoint(base) {
			roots++
		}
	}
	if roots == 0 {
		t.Fatal("every pool root is a chain of renames over a fixpoint")
	}
	// Round 0 runs the pool in pool order on every client, released
	// together, so the clients derive the same operands at once and probe
	// the entry that wins; round 1 runs it in each client's own order.
	const clients = 4
	round := func(round int) {
		t.Helper()
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				order := rand.New(rand.NewSource(int64(c))).Perm(len(pool))
				if round == 0 {
					for i := range order {
						order[i] = i
					}
				}
				for _, i := range order {
					q := pool[i]
					res, err := eng.QueryCollect(context.Background(), q)
					if err != nil {
						errs <- fmt.Errorf("client %d, %q: %w", c, q, err)
						return
					}
					got := make([]string, 0, len(res.Rows))
					for _, r := range res.Rows {
						got = append(got, strings.Join(r, "\t"))
					}
					sort.Strings(got)
					if strings.Join(got, "\n") != strings.Join(want[q], "\n") {
						errs <- fmt.Errorf("client %d, round %d, %q: %d rows, want %d", c, round, q, len(got), len(want[q]))
						return
					}
				}
			}(c)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
	round(0)
	before := eng.OperandMemoStats()
	if before.Hits == 0 {
		t.Errorf("the clients shared no operand: %+v", before)
	}
	round(1)
	after := eng.OperandMemoStats()
	if after.Misses != before.Misses || after.Hits-before.Hits != int64(clients*len(pool)) {
		t.Errorf("round 1: memo %+v, then %+v; want %d hits (%d clients × %d queries) and no miss",
			before, after, clients*len(pool), clients, len(pool))
	}
}

func isFixpoint(t core.Term) bool {
	_, ok := t.(*core.Fixpoint)
	return ok
}

// TestOperandMemoColdCaches: with the plan cache and the sub-result cache
// both off, the driver still memoizes the operands derived from the graph
// alone. A second identical query derives no operand or fixpoint seed and
// builds no index over one; neither query reads as a cache hit; the
// operand that contains a fixpoint is not kept, so no memo hit stands in
// for a µ result; and a write to a predicate a query reads makes the next
// one derive again.
func TestOperandMemoColdCaches(t *testing.T) {
	eng, ref := memoEngines(t, Options{Workers: 2, PlanCacheSize: -1, DisableSubResultCache: true})
	// A fixpoint whose seed is derived from the graph, and a glue join of
	// two operands derived from it.
	queries := []string{"?x,?y <- ?x knows+ ?y", "?x,?y <- ?x knows/knows ?y", memoQuery}
	run := func(round string) {
		t.Helper()
		for _, q := range queries {
			got, st := collectSorted(t, eng, q)
			want, _ := collectSorted(t, ref, q)
			sameRows(t, round+" "+q, got, want)
			if st.SubResultHits != 0 || st.PlanCacheHit {
				t.Errorf("%s %q: %d sub-result hits, plan cache hit %v; want neither", round, q, st.SubResultHits, st.PlanCacheHit)
			}
		}
	}
	run("cold")
	before := eng.OperandMemoStats()
	if before.Misses == 0 || before.Entries == 0 {
		t.Fatalf("the cold round memoized nothing: %+v", before)
	}
	run("warm")
	after := eng.OperandMemoStats()
	if after.Misses != before.Misses || after.Hits <= before.Hits {
		t.Errorf("the warm round derived operands again: before %+v, after %+v", before, after)
	}
	if after.Bytes != before.Bytes || after.Entries != before.Entries {
		t.Errorf("the warm round built indexes or entries: %d B in %d entries, then %d B in %d",
			before.Bytes, before.Entries, after.Bytes, after.Entries)
	}

	// memoQuery's glue join has a side that contains its fixpoint.
	plan, _, _, err := eng.optimize(memoQuery, eng.queryConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	var withFixpoint []core.Term
	core.Walk(plan, func(n core.Term) bool {
		if j, ok := n.(*core.Join); ok {
			for _, side := range []core.Term{j.L, j.R} {
				if _, bare := side.(*core.Fixpoint); !bare && containsFixpoint(side) {
					withFixpoint = append(withFixpoint, side)
				}
			}
		}
		return true
	})
	if len(withFixpoint) == 0 {
		t.Fatalf("no join side of %s contains a fixpoint", plan)
	}
	for _, side := range withFixpoint {
		if eng.operands.Get(rewrite.Fingerprint(side), snapshotFootprint(eng.graph, side).stamp()) != nil {
			t.Errorf("the memo keeps %s without the sub-result cache", side)
		}
	}

	eng.AddTriple("n40", "knows", "fresh")
	before = eng.OperandMemoStats()
	got, _ := collectSorted(t, eng, queries[0])
	want, _ := collectSorted(t, ref, queries[0])
	sameRows(t, "after a knows write", got, want)
	if !strings.Contains(strings.Join(got, "\n"), "fresh") {
		t.Error("the rows after the write do not reach the new edge")
	}
	if after := eng.OperandMemoStats(); after.Misses == before.Misses {
		t.Errorf("a write to knows left its seed in the memo: before %+v, after %+v", before, after)
	}
}
