package distmura

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// subTestGraph builds a small two-predicate graph: a sparse "knows" chain
// with shortcuts plus a disjoint "likes" chain, so distinct queries have
// distinct predicate footprints.
func subTestGraph() *graphgen.Graph {
	g := graphgen.NewGraph("subtest")
	for i := 0; i < 40; i++ {
		g.Add(fmt.Sprintf("n%d", i), "knows", fmt.Sprintf("n%d", i+1))
		if i%5 == 0 {
			g.Add(fmt.Sprintf("n%d", i), "knows", fmt.Sprintf("n%d", (i*7)%40))
		}
		g.Add(fmt.Sprintf("m%d", i), "likes", fmt.Sprintf("m%d", i+1))
	}
	return g
}

// collectSorted runs a query and returns its rows as sorted strings, plus
// the run's stats.
func collectSorted(t *testing.T, e *Engine, q string) ([]string, QueryStats) {
	t.Helper()
	res, err := e.QueryCollect(context.Background(), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, strings.Join(r, "\t"))
	}
	sort.Strings(out)
	return out, res.Stats
}

func sameRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestSubResultWarmColdShared is the differential acceptance test: the same
// query answered cold (cache miss), warm (cache hit) and by several
// concurrently-sharing sessions must produce exactly the rows an engine
// with the cache disabled produces.
func TestSubResultWarmColdShared(t *testing.T) {
	g := subTestGraph()
	iso, err := Open(Options{Workers: 2, DisableSubResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer iso.Close()
	iso.UseGraph(g)
	want, isoStats := collectSorted(t, iso, "?x,?y <- ?x knows+ ?y")
	if isoStats.SubResultHits != 0 {
		t.Errorf("disabled cache reported hits: %+v", isoStats)
	}
	if s := iso.SubResultCacheStats(); s != (SubResultCacheStats{}) {
		t.Errorf("disabled cache has non-zero stats: %+v", s)
	}

	shared, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	shared.UseGraph(g)

	cold, coldStats := collectSorted(t, shared, "?x,?y <- ?x knows+ ?y")
	sameRows(t, "cold", cold, want)
	if coldStats.SubResultHits != 0 {
		t.Errorf("cold run claimed cache hits: %+v", coldStats)
	}
	warm, warmStats := collectSorted(t, shared, "?x,?y <- ?x knows+ ?y")
	sameRows(t, "warm", warm, want)
	if warmStats.SubResultHits == 0 {
		t.Errorf("warm run missed the cache: %+v", warmStats)
	}

	var wg sync.WaitGroup
	results := make([][]string, 6)
	errs := make([]error, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := shared.QueryCollect(context.Background(), "?x,?y <- ?x knows+ ?y")
			if err != nil {
				errs[i] = err
				return
			}
			rows := make([]string, 0, len(res.Rows))
			for _, r := range res.Rows {
				rows = append(rows, strings.Join(r, "\t"))
			}
			sort.Strings(rows)
			results[i] = rows
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("shared run %d: %v", i, errs[i])
		}
		sameRows(t, fmt.Sprintf("shared run %d", i), results[i], want)
	}

	cs := shared.SubResultCacheStats()
	if cs.Misses == 0 || cs.Hits == 0 {
		t.Errorf("expected both misses and hits after warm+shared runs: %+v", cs)
	}
	// Residency is the driver store's, which keeps the µ result.
	if ms := shared.OperandMemoStats(); ms.Bytes <= 0 || ms.Entries == 0 {
		t.Errorf("expected resident entries after runs: %+v", ms)
	}
}

// TestSubResultSingleFlight checks that N cold concurrent sessions issuing
// the same query compute each distinct recursive subplan once: the misses
// after the burst, and the fixpoint iterations the sessions ran, equal
// those of one cold run; everything else hit or joined in flight.
func TestSubResultSingleFlight(t *testing.T) {
	g := subTestGraph()
	probe, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	probe.UseGraph(g)
	_, cold := collectSorted(t, probe, "?x,?y <- ?x knows+ ?y")
	perRun := probe.SubResultCacheStats().Misses
	probe.Close()
	if perRun == 0 {
		t.Fatal("cold run registered no cache misses; plan has no cacheable fixpoint")
	}

	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(g)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	iters := make([]int, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := eng.QueryCollect(context.Background(), "?x,?y <- ?x knows+ ?y")
			if errs[i] = err; err == nil {
				iters[i] = res.Stats.Iterations
			}
		}(i)
	}
	close(start)
	wg.Wait()
	total := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		total += iters[i]
	}
	if total != cold.Iterations {
		t.Errorf("%d concurrent cold runs iterated %d times, want one run's %d (single-flight)", n, total, cold.Iterations)
	}
	cs := eng.SubResultCacheStats()
	if cs.Misses != perRun {
		t.Errorf("misses = %d after %d concurrent cold runs, want %d (single-flight)", cs.Misses, n, perRun)
	}
	if cs.Hits < int64(n-1) {
		t.Errorf("hits = %d, want >= %d", cs.Hits, n-1)
	}
}

// TestSubResultInvalidationPerPredicate proves the fine-grained staleness
// tracking: a write to one predicate leaves the other predicate's
// artifacts warm, and the sub-result that does read the written predicate
// is upgraded in place from the delta (a refresh hit) rather than dropped
// and recomputed — with the new edge's consequences present in the rows.
func TestSubResultInvalidationPerPredicate(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(subTestGraph())

	qKnows := "?x,?y <- ?x knows+ ?y"
	qLikes := "?x,?y <- ?x likes+ ?y"
	knowsBefore, _ := collectSorted(t, eng, qKnows)
	collectSorted(t, eng, qLikes)

	// Writing `knows` must not disturb the `likes` artifacts.
	eng.AddTriple("n0", "knows", "fresh")
	likesWarm, likesStats := collectSorted(t, eng, qLikes)
	if likesStats.SubResultHits == 0 {
		t.Errorf("likes sub-result was invalidated by a knows write: %+v", likesStats)
	}
	if likesStats.Refreshes != 0 {
		t.Errorf("likes sub-result claims a refresh after a knows write: %+v", likesStats)
	}
	if !likesStats.PlanCacheHit {
		t.Errorf("likes plan was invalidated by a knows write: %+v", likesStats)
	}
	if len(likesWarm) == 0 {
		t.Fatal("likes query returned nothing")
	}

	// The knows entry is stale by an insert-only delta of a monotone
	// closure: served as a refresh hit, never evicted or recomputed.
	knowsAfter, knowsStats := collectSorted(t, eng, qKnows)
	if knowsStats.SubResultHits == 0 || knowsStats.Refreshes == 0 {
		t.Errorf("stale knows sub-result was not refreshed in place: %+v", knowsStats)
	}
	if knowsStats.RefreshRows == 0 {
		t.Errorf("refresh added no rows despite a reachable new edge: %+v", knowsStats)
	}
	if len(knowsAfter) <= len(knowsBefore) {
		t.Errorf("knows rows %d not grown by the new edge (before %d)", len(knowsAfter), len(knowsBefore))
	}
	found := false
	for _, r := range knowsAfter {
		if strings.Contains(r, "fresh") {
			found = true
			break
		}
	}
	if !found {
		t.Error("refreshed knows result does not reach the new edge")
	}
	cs := eng.SubResultCacheStats()
	if cs.Refreshes == 0 || cs.RefreshRows == 0 {
		t.Errorf("no refresh recorded engine-wide: %+v", cs)
	}
	if cs.Invalidations != 0 {
		t.Errorf("refreshable entry was invalidated instead of upgraded: %+v", cs)
	}

	// The refreshed rows must match a from-scratch recompute exactly.
	iso, err := Open(Options{Workers: 2, DisableSubResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer iso.Close()
	iso.UseGraph(eng.Graph())
	want, _ := collectSorted(t, iso, qKnows)
	sameRows(t, "refresh vs recompute", knowsAfter, want)
}

// TestSubResultRefreshConverges drives several insert rounds through one
// cached closure — chain extensions, shortcuts, duplicates — asserting
// after each round that the refreshed rows equal a cache-disabled
// engine's recompute and that the upgrades keep landing as refresh hits.
func TestSubResultRefreshConverges(t *testing.T) {
	g := subTestGraph()
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(g)
	iso, err := Open(Options{Workers: 2, DisableSubResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer iso.Close()
	iso.UseGraph(g)

	const q = "?x,?y <- ?x knows+ ?y"
	collectSorted(t, eng, q) // cold: populate the cache

	var refreshes int64
	for round := 0; round < 5; round++ {
		switch round {
		case 0: // extend the chain tail
			eng.AddTriple("n40", "knows", "n41")
		case 1: // long-range shortcut: many new pairs in one edge
			eng.AddTriple("n39", "knows", "n0")
		case 2: // duplicate insert: a no-op, caches stay valid
			eng.AddTriple("n40", "knows", "n41")
		case 3: // brand-new component
			eng.AddTriple("z0", "knows", "z1")
		case 4: // connect the new component to the old graph
			eng.AddTriple("n41", "knows", "z0")
		}
		got, stats := collectSorted(t, eng, q)
		want, _ := collectSorted(t, iso, q)
		sameRows(t, fmt.Sprintf("round %d", round), got, want)
		if stats.SubResultHits == 0 {
			t.Errorf("round %d: stale entry not served from the cache: %+v", round, stats)
		}
		if round == 2 && stats.Refreshes != 0 {
			t.Errorf("duplicate insert triggered a refresh: %+v", stats)
		}
		if round != 2 && stats.Refreshes == 0 {
			t.Errorf("round %d: stale entry not refreshed in place: %+v", round, stats)
		}
		refreshes += stats.Refreshes
	}
	cs := eng.SubResultCacheStats()
	if cs.Refreshes != refreshes || refreshes == 0 {
		t.Errorf("engine-wide refreshes = %d, want %d (>0): %+v", cs.Refreshes, refreshes, cs)
	}
	if cs.Invalidations != 0 {
		t.Errorf("refresh rounds caused invalidations: %+v", cs)
	}
}

// TestSubResultRefreshGate pins the monotonicity gate: closures refresh,
// terms containing an antijoin or a nested fixpoint do not (their delta
// is not expressible as an insert-seeded semi-naive resume).
func TestSubResultRefreshGate(t *testing.T) {
	edge := core.EdgeRel(edgeRel, core.Value(1))
	closure := core.ClosureLR("X", edge)
	if _, ok := refreshableSubResult(closure); !ok {
		t.Error("plain closure should be refreshable")
	}
	anti := &core.Fixpoint{X: "X", Body: &core.Union{
		L: edge,
		R: &core.Antijoin{L: core.Compose(&core.Var{Name: "X"}, edge), R: edge},
	}}
	if _, ok := refreshableSubResult(anti); ok {
		t.Error("antijoin body must not be refreshable")
	}
	nested := &core.Fixpoint{X: "X", Body: &core.Union{
		L: closure,
		R: core.Compose(&core.Var{Name: "X"}, edge),
	}}
	if _, ok := refreshableSubResult(nested); ok {
		t.Error("nested fixpoint must not be refreshable")
	}
}

// TestSubResultHasValidatesInFlight is the regression test for the
// cost-hook staleness bug: has() used to report any in-flight entry as
// cached without checking its footprint, so after a relevant write the
// cost model kept pricing a doomed computation at scan cost. A leader
// that fails then vacates its slot: the next lookup leads.
func TestSubResultHasValidatesInFlight(t *testing.T) {
	g := graphgen.NewGraph("hasflight")
	g.Add("a", "p", "b")
	c := newSubResultCache(core.NewOperandMemo(0))
	term := &core.Var{Name: edgeRel} // wildcard footprint
	ctx := context.Background()

	_, _, err := c.operand(ctx, g, "k", term, func() (*core.Relation, error) {
		if !c.has("k", g) {
			t.Error("in-flight entry with a current footprint should price as cached")
		}
		// The leader snapshotted before this write, so whatever it keeps
		// can never validate: the entry is already doomed.
		g.Add("a", "p", "c")
		if c.has("k", g) {
			t.Error("in-flight entry stale against the current graph still priced as cached")
		}
		return nil, fmt.Errorf("synthetic failure")
	})
	if err == nil {
		t.Fatal("the leader's failure was not returned")
	}
	if c.has("k", g) {
		t.Error("a failed leader left its entry priced as cached")
	}
	led := false
	if _, _, err := c.operand(ctx, g, "k", term, func() (*core.Relation, error) {
		led = true
		return core.NewRelation("src", "pred", "trg"), nil
	}); err != nil || !led {
		t.Fatalf("the slot a failed leader held was not vacated: led=%t err=%v", led, err)
	}
	if !c.has("k", g) {
		t.Error("entry missing after the new leader kept its rows")
	}
}

// TestCachedPredicateTracksGraphSwap is the regression test for the
// captured-graph staleness bug: cachedTermPredicate used to close over
// e.graph at hook-creation time, so a hook outliving a UseGraph swap
// validated fingerprints against the retired graph — and because
// generations are per graph object, the retired and current graphs can
// agree on every counter, making the mismatch silent. The hook must
// resolve the engine's graph at call time.
func TestCachedPredicateTracksGraphSwap(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g1 := subTestGraph()
	g2 := subTestGraph() // same shape: identical generation counts
	eng.UseGraph(g1)

	// Build the hook while g1 is current, then swap to g2 and warm the
	// cache under g2.
	hook := eng.cachedTermPredicate()
	eng.UseGraph(g2)
	const q = "?x,?y <- ?x knows+ ?y"
	collectSorted(t, eng, q)

	// Recover the exact fixpoint term the cache keyed from the optimizer.
	term, _, _, _, err := eng.optimizeCached(context.Background(), q, eng.queryConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	var fp *core.Fixpoint
	core.Walk(term, func(t core.Term) bool {
		if f, ok := t.(*core.Fixpoint); ok && cacheableFixpoint(f) && fp == nil {
			fp = f
		}
		return fp == nil
	})
	if fp == nil {
		t.Fatal("optimized plan has no cacheable fixpoint")
	}
	if !hook(fp) {
		t.Error("hook created before UseGraph prices against the retired graph object")
	}
}

// TestConcurrentRefreshStress is the writers-vs-refresh -race lane: rounds
// of quiesced insert batches followed by a burst of concurrent queries, so
// one goroutine leads the in-place upgrade while the others wait on it and
// serve the refreshed rows — all of which must equal a cache-disabled
// recompute.
func TestConcurrentRefreshStress(t *testing.T) {
	g := subTestGraph()
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(g)
	iso, err := Open(Options{Workers: 2, DisableSubResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer iso.Close()
	iso.UseGraph(g)

	const q = "?x,?y <- ?x knows+ ?y"
	collectSorted(t, eng, q) // populate the cache

	const rounds, readers = 6, 6
	for round := 0; round < rounds; round++ {
		// Mutation phase: writers run alone (the graph's documented
		// contract — mutation is atomic w.r.t. snapshots, not queries).
		for i := 0; i < 4; i++ {
			eng.AddTriple(fmt.Sprintf("s%d_%d", round, i), "knows", fmt.Sprintf("s%d_%d", round, i+1))
		}
		eng.AddTriple(fmt.Sprintf("n%d", round), "knows", fmt.Sprintf("s%d_0", round))

		want, _ := collectSorted(t, iso, q)
		var wg sync.WaitGroup
		rows := make([][]string, readers)
		errs := make([]error, readers)
		start := make(chan struct{})
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				res, err := eng.QueryCollect(context.Background(), q)
				if err != nil {
					errs[i] = err
					return
				}
				out := make([]string, 0, len(res.Rows))
				for _, r := range res.Rows {
					out = append(out, strings.Join(r, "\t"))
				}
				sort.Strings(out)
				rows[i] = out
			}(i)
		}
		close(start)
		wg.Wait()
		for i := 0; i < readers; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d reader %d: %v", round, i, errs[i])
			}
			sameRows(t, fmt.Sprintf("round %d reader %d", round, i), rows[i], want)
		}
	}
	cs := eng.SubResultCacheStats()
	if cs.Refreshes < rounds {
		t.Errorf("refreshes = %d after %d stale rounds: %+v", cs.Refreshes, rounds, cs)
	}
	if cs.Invalidations != 0 {
		t.Errorf("refresh rounds caused invalidations: %+v", cs)
	}
}

// TestSubResultEviction runs with a one-byte budget: every kept µ result
// is over budget at once and evicts what the driver store held before,
// which is kept over budget in its turn, and evicted (cold-again) runs
// still return identical rows. The store keeps the newcomer, under
// OperandMemo's admission rule, so it holds one entry, not none.
func TestSubResultEviction(t *testing.T) {
	g := subTestGraph()
	iso, err := Open(Options{Workers: 2, DisableSubResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer iso.Close()
	iso.UseGraph(g)
	want, _ := collectSorted(t, iso, "?x,?y <- ?x knows+ ?y")

	eng, err := Open(Options{Workers: 2, SubResultCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(g)
	for i := 0; i < 3; i++ {
		rows, _ := collectSorted(t, eng, "?x,?y <- ?x knows+ ?y")
		sameRows(t, fmt.Sprintf("evicted run %d", i), rows, want)
	}
	ms := eng.OperandMemoStats()
	if ms.Evictions == 0 {
		t.Errorf("over-budget store never evicted: %+v", ms)
	}
	if ms.Entries != 1 {
		t.Errorf("over-budget store holds %d entries, want the newcomer alone: %+v", ms.Entries, ms)
	}
}

// TestConcurrentSubResultCache is the -race stress for the cache object
// itself: goroutines race lookups, derivations (some failing), graph
// writes (invalidation), pricing and flushes over a small hot key set,
// on a memo budget the keys overflow. After a final flush nothing is
// resident.
func TestConcurrentSubResultCache(t *testing.T) {
	g := graphgen.NewGraph("stress")
	g.Add("a", "p", "b")
	memo := core.NewOperandMemo(1 << 10)
	c := newSubResultCache(memo)
	term := &core.Var{Name: edgeRel} // wildcard footprint
	ctx := context.Background()

	makeRel := func(n int) *core.Relation {
		rel := core.NewRelation("?x")
		for i := 0; i < n; i++ {
			rel.Add([]core.Value{core.Value(i)})
		}
		return rel
	}

	const (
		workers = 8
		iters   = 400
		keys    = 5
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (w+i)%keys)
				switch {
				case i%97 == 13:
					c.flush()
					memo.Flush()
				case i%31 == 7:
					g.Add("a", "p", fmt.Sprintf("t%d-%d", w, i)) // invalidates wildcards
				case i%13 == 3:
					c.has(key, g)
				default:
					fail := i%17 == 5
					op, _, err := c.operand(ctx, g, key, term, func() (*core.Relation, error) {
						if fail {
							return nil, fmt.Errorf("synthetic failure")
						}
						return makeRel(1 + i%64), nil
					})
					if fail && err != nil {
						continue
					}
					if err != nil {
						t.Errorf("lookup: %v", err)
						return
					}
					if op == nil || op.Rel() == nil {
						t.Error("served entry without relation")
						return
					}
					_ = op.Rel().Len()
				}
			}
		}(w)
	}
	wg.Wait()
	c.flush()
	memo.Flush()
	if st := memo.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("store holds %d B in %d entries after the final flush, want none", st.Bytes, st.Entries)
	}
	if st := memo.Stats(); st.Evictions == 0 {
		t.Errorf("the budget never evicted: %+v", st)
	}
	if len(c.entries) != 0 {
		t.Errorf("cache holds %d entries after the final flush", len(c.entries))
	}
}

// TestConcurrentSubResultCancelWait checks that a waiter blocked on another
// session's in-flight computation honors its context.
func TestConcurrentSubResultCancelWait(t *testing.T) {
	g := graphgen.NewGraph("cancel")
	g.Add("a", "p", "b")
	c := newSubResultCache(core.NewOperandMemo(0))
	term := &core.Var{Name: edgeRel}

	// The leader derives until release is closed.
	release, leading := make(chan struct{}), make(chan struct{})
	led := make(chan error, 1)
	go func() {
		_, _, err := c.operand(context.Background(), g, "k", term, func() (*core.Relation, error) {
			close(leading)
			<-release
			rel := core.NewRelation("?x")
			rel.Add([]core.Value{1})
			return rel, nil
		})
		led <- err
	}()
	<-leading
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, out, err := c.operand(ctx, g, "k", term, func() (*core.Relation, error) {
			t.Error("a waiter derived while the leader held the lease")
			return nil, fmt.Errorf("not the leader")
		})
		if err == nil {
			t.Errorf("waiter returned without error despite cancellation (waited=%v)", out.waited)
		}
		done <- err
	}()
	// Let the waiter block on the in-flight entry, then cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for c.waits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.waits.Load() == 0 {
		t.Fatal("waiter never blocked on the in-flight entry")
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked after 5s")
	}
	// The leader still completes normally afterwards.
	close(release)
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	if !c.has("k", g) {
		t.Error("entry missing after leader completion")
	}
}

// TestSubResultLazySetSharedProbes: a cached fixpoint result leaves
// Accumulator.Materialize with its dedup set deferred and is shared, as
// one *core.Relation, by the cache entry, a Watch and two concurrent
// readers of the same query. A delete then sends all three sessions at
// the stale entry at once: exactly one runs the DRed pass — whose
// Relation.Remove work cuts sets from that relation — while the others
// wait on it and then read the maintained rows. The set must be built
// exactly once, every session must come out right, and the retractions
// the sessions report must add up to the cache's, so no session ran a
// private pass beside the shared one; the CI race lanes run this.
func TestSubResultLazySetSharedProbes(t *testing.T) {
	eng, iso := dredEngines(t, subTestGraph())
	const q = "?x,?y <- ?x knows+ ?y"
	w, err := eng.Watch(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		closed := make(chan struct{})
		go func() {
			w.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Watch.Close still blocked after 10s")
		}
	}()
	watched := map[string]bool{}
	for _, row := range recvDelta(t, w).Added {
		watched[strings.Join(row, "\t")] = true
	}
	for round := 0; round < 4; round++ {
		before := eng.SubResultCacheStats()
		// Retract a long-lived chain edge: phase 1 of DRed probes the old
		// rows for every over-deletion candidate.
		if !eng.DeleteTriple(fmt.Sprintf("n%d", 11+round), "knows", fmt.Sprintf("n%d", 12+round)) {
			t.Fatalf("round %d: edge missing", round)
		}
		const readers = 2
		var wg sync.WaitGroup
		rows := make([][]string, readers)
		retractions := make([]int64, readers)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := eng.QueryCollect(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				retractions[i] = res.Stats.Retractions
				for _, r := range res.Rows {
					rows[i] = append(rows[i], strings.Join(r, "\t"))
				}
				sort.Strings(rows[i])
			}(i)
		}
		d := recvDelta(t, w)
		wg.Wait()
		if t.Failed() {
			return
		}
		after := eng.SubResultCacheStats()
		if n := after.Refreshes - before.Refreshes; n != 1 {
			t.Fatalf("round %d: the window was maintained %d times, want one shared DRed pass", round, n)
		}
		reported := d.Stats.Retractions
		for _, r := range retractions {
			reported += r
		}
		if cached := after.Retractions - before.Retractions; cached == 0 || reported != cached {
			t.Fatalf("round %d: sessions reported %d retractions, the cache ran %d; want one pass, > 0",
				round, reported, cached)
		}
		for _, row := range d.Added {
			watched[strings.Join(row, "\t")] = true
		}
		for _, row := range d.Removed {
			delete(watched, strings.Join(row, "\t"))
		}
		want, _ := collectSorted(t, iso, q)
		for i := range rows {
			sameRows(t, fmt.Sprintf("round %d reader %d", round, i), rows[i], want)
		}
		if len(watched) != len(want) {
			t.Fatalf("round %d: watcher holds %d rows, want %d", round, len(watched), len(want))
		}
		for _, row := range want {
			if !watched[row] {
				t.Fatalf("round %d: watcher lost row %q", round, row)
			}
		}
	}
}
