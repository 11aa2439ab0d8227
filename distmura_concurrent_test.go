package distmura

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// canonical renders a result's rows order-insensitively — the engine's
// SameRows contract ported to the string API (fixpoint results have no
// deterministic order under parallelism).
func canonical(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "\x00")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestConcurrentQueriesMatchSerial is the headline acceptance test: one
// engine serves 12 goroutines running a mix of prepared and un-prepared
// queries across all physical plans (including the exchange-heavy Pgld),
// and every result must equal its serial baseline row-for-row. Run under
// -race this also proves the session layer keeps concurrent exchanges,
// metrics and gauges apart.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	e := openTest(t, Options{Workers: 4})
	e.UseGraph(graphgen.Yago(250, 21))

	cases := []struct {
		text string
		opts []QueryOption
	}{
		{"?x,?y <- ?x hasChild+ ?y", nil},
		{"?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon", nil},
		{"?x,?y <- ?x IsL+/dw+ ?y", []QueryOption{WithPlan(PlanGld)}},
		{"?x,?y <- ?x isMarriedTo+ ?y", []QueryOption{WithPlan(PlanPgplw)}},
		{"?x,?y <- ?x hasChild+ ?y", []QueryOption{WithPlan(PlanGld)}},
	}
	ctx := context.Background()

	// Serial baselines.
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = canonical(collect(t, e, c.text, c.opts...))
	}

	// Two of the queries also run as shared prepared statements.
	stmts := make(map[int]*Stmt)
	for _, i := range []int{0, 2} {
		stmt, err := e.Prepare(cases[i].text, cases[i].opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer stmt.Close()
		stmts[i] = stmt
	}

	const goroutines = 12
	const rounds = 3
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(cases)
				var res *Result
				var err error
				if stmt, ok := stmts[i]; ok && (g+r)%2 == 0 {
					res, err = stmt.Collect(ctx)
				} else {
					res, err = e.QueryCollect(ctx, cases[i].text, cases[i].opts...)
				}
				if err != nil {
					errs[g] = fmt.Errorf("round %d case %d: %w", r, i, err)
					return
				}
				if got := canonical(res); got != want[i] {
					errs[g] = fmt.Errorf("round %d case %d: concurrent result diverges from serial (%d rows vs %d)",
						r, i, len(res.Rows), strings.Count(want[i], "\n")+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestInterleavedStatsExact is the stats-misattribution regression test:
// a shuffle-heavy Pgld query and a zero-shuffle Ps_plw query run
// concurrently, repeatedly, and each call's QueryStats must equal its
// serial baseline exactly — under the old engine-global snapshot diff the
// overlapping Pgld traffic would have leaked into the Ps_plw stats.
func TestInterleavedStatsExact(t *testing.T) {
	e := openTest(t, Options{Workers: 3})
	e.UseGraph(graphgen.Yago(200, 18))
	const q = "?x,?y <- ?x hasChild+ ?y"
	ctx := context.Background()

	gldBase := collect(t, e, q, WithPlan(PlanGld))
	plwBase := collect(t, e, q, WithPlan(PlanSplw))
	if gldBase.Stats.ShufflePhases == 0 {
		t.Fatal("baseline Pgld did not shuffle; the test needs a shuffle-heavy query")
	}
	if plwBase.Stats.ShufflePhases != 0 || !plwBase.Stats.Partitioned {
		t.Fatalf("baseline Ps_plw should be partitioned and shuffle-free: %+v", plwBase.Stats)
	}

	const rounds = 4
	check := func(kind string, got, base QueryStats) error {
		if got.ShufflePhases != base.ShufflePhases ||
			got.ShuffleRecords != base.ShuffleRecords ||
			got.Iterations != base.Iterations ||
			got.Partitioned != base.Partitioned {
			return fmt.Errorf("%s stats drifted under overlap: got %+v want %+v", kind, got, base)
		}
		if got.Spills < 0 || got.SpilledBytes < 0 || got.NetworkBytes < 0 {
			return fmt.Errorf("%s stats went negative under overlap: %+v", kind, got)
		}
		return nil
	}
	errCh := make(chan error, 2*rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := e.QueryCollect(ctx, q, WithPlan(PlanGld))
			if err == nil {
				err = check("Pgld", res.Stats, gldBase.Stats)
			}
			errCh <- err
		}()
		go func() {
			defer wg.Done()
			res, err := e.QueryCollect(ctx, q, WithPlan(PlanSplw))
			if err == nil {
				err = check("Ps_plw", res.Stats, plwBase.Stats)
			}
			errCh <- err
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestInterleavedSpillAttribution runs a spilling query concurrently with
// a query whose working set is trivially in budget: the small query must
// report zero spills even while its neighbor spills heavily — exact
// per-query gauge deltas, the other half of the misattribution fix. Once
// both return, every worker gauge and the driver gauge are back to zero.
func TestInterleavedSpillAttribution(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Workers: 2, TaskMemBytes: 1 << 15, SpillDir: dir})
	for i := 0; i < 400; i++ {
		e.AddTriple(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", i+1))
	}
	e.AddTriple("x", "q", "y")
	ctx := context.Background()

	var wg sync.WaitGroup
	var big, small *Result
	var bigErr, smallErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		big, bigErr = e.QueryCollect(ctx, "?x,?y <- ?x p+ ?y", WithPlan(PlanSplw))
	}()
	go func() {
		defer wg.Done()
		// Give the big query a head start so the runs genuinely overlap.
		time.Sleep(5 * time.Millisecond)
		small, smallErr = e.QueryCollect(ctx, "?x <- x q ?x")
	}()
	wg.Wait()
	if bigErr != nil || smallErr != nil {
		t.Fatalf("big err=%v small err=%v", bigErr, smallErr)
	}
	if big.Stats.Spills == 0 {
		t.Fatalf("the closure under a %d-byte budget should spill; stats=%+v", 1<<15, big.Stats)
	}
	if small.Stats.Spills != 0 || small.Stats.SpilledBytes != 0 {
		t.Fatalf("tiny query charged with a neighbor's spills: %+v", small.Stats)
	}
	// Both queries returned, so everything they built was released: no
	// worker gauge and not the driver's still holds a charge.
	for i, g := range append(e.clust.Gauges(), e.clust.DriverGauge()) {
		if n := g.Used(); n != 0 {
			t.Fatalf("gauge %d holds %d B after both queries returned", i, n)
		}
	}
	// Spill files are unlinked at creation: the dir must stay clean.
	if left, _ := filepath.Glob(filepath.Join(dir, core.SpillFilePattern)); len(left) > 0 {
		t.Fatalf("%d leftover spill files", len(left))
	}
}

// waitGoroutines polls until the goroutine count returns to the baseline
// (transient exchange senders and pool workers wind down asynchronously).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after cancellation: %d > baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// TestCancelMidFixpoint cancels a long transitive closure mid-iteration:
// the call must return ctx.Err() promptly, leak no goroutines, and leave
// no spill files — the engine's resources unwind through the usual defers.
func TestCancelMidFixpoint(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Workers: 2, TaskMemBytes: 1 << 16, SpillDir: dir})
	// A 2048-node chain: the closure needs ~2k iterations and megabytes of
	// accumulator — far longer than the 50ms cancel horizon below.
	for i := 0; i < 2048; i++ {
		e.AddTriple(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", i+1))
	}

	// Warm up (and pay one-time pools) so the baselines are honest, using
	// a query small enough to be instant.
	if _, err := e.QueryCollect(context.Background(), "?x <- n0 p ?x"); err != nil {
		t.Fatal(err)
	}

	for _, plan := range []Plan{PlanSplw, PlanGld, PlanPgplw} {
		t.Run(plan.String(), func(t *testing.T) {
			// Baseline inside the subtest: its own runner goroutine (and
			// the parked parent) are part of the steady state.
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := e.Query(ctx, "?x,?y <- ?x p+ ?y", WithPlan(plan))
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("want DeadlineExceeded, got %v (after %v)", err, elapsed)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v to take effect", elapsed)
			}
			waitGoroutines(t, base)
			if left, _ := filepath.Glob(filepath.Join(dir, core.SpillFilePattern)); len(left) > 0 {
				t.Fatalf("%d leftover spill files after cancellation", len(left))
			}
		})
	}

	// The engine still serves queries after cancellations.
	res := collect(t, e, "?x <- n0 p ?x")
	if len(res.Rows) != 1 {
		t.Fatalf("engine unusable after cancellations: %v", res.Rows)
	}
}

// TestCancelBeforeExecution pins the fast-fail paths: a context cancelled
// before the call must abort before any cluster work.
func TestCancelBeforeExecution(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	e.AddTriple("a", "p", "b")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, "?x <- a p+ ?x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query: want context.Canceled, got %v", err)
	}
	stmt, err := e.Prepare("?x <- a p+ ?x")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if _, err := stmt.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stmt.Run: want context.Canceled, got %v", err)
	}
}

// TestAdmissionControl exercises Options.MaxConcurrentQueries: capped
// engines still complete a burst of queries, and a waiter whose context
// expires while queued gets ctx.Err() instead of a slot.
func TestAdmissionControl(t *testing.T) {
	e := openTest(t, Options{Workers: 2, MaxConcurrentQueries: 2})
	for i := 0; i < 1500; i++ {
		e.AddTriple(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", i+1))
	}
	ctx := context.Background()

	// A burst over the cap: all succeed, just queued.
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.QueryCollect(ctx, "?x <- n0 p+ ?x")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("burst query %d: %v", i, err)
		}
	}

	// Fill both slots with slow queries, then time out a waiter.
	slowCtx, cancelSlow := context.WithCancel(ctx)
	var slowWg sync.WaitGroup
	for i := 0; i < 2; i++ {
		slowWg.Add(1)
		go func() {
			defer slowWg.Done()
			// These are cancelled at test end; errors are expected then.
			e.QueryCollect(slowCtx, "?x,?y <- ?x p+ ?y") //nolint:errcheck
		}()
	}
	time.Sleep(50 * time.Millisecond) // let both claim their slots
	waitCtx, cancelWait := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelWait()
	if _, err := e.QueryCollect(waitCtx, "?x <- n0 p ?x"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query: want DeadlineExceeded, got %v", err)
	}
	cancelSlow()
	slowWg.Wait()
}

// TestPlanCacheHitCounter asserts the cache contract end to end: first run
// misses, repeat run hits (optimizer skipped), graph mutation invalidates
// via the generation counter.
func TestPlanCacheHitCounter(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	addChain(e, "p", "a", "b", "c")
	const q = "?x <- a p+ ?x"

	r1 := collect(t, e, q)
	if r1.Stats.PlanCacheHit {
		t.Fatal("first run reported a cache hit")
	}
	st := e.PlanCacheStats()
	if st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first run: %+v", st)
	}

	r2 := collect(t, e, q)
	if !r2.Stats.PlanCacheHit {
		t.Fatal("repeat run did not hit the plan cache")
	}
	if got := e.PlanCacheStats(); got.Hits != 1 {
		t.Fatalf("hit counter = %d, want 1", got.Hits)
	}
	if r2.Stats.PlanSpace != r1.Stats.PlanSpace {
		t.Fatalf("cached PlanSpace %d != original %d", r2.Stats.PlanSpace, r1.Stats.PlanSpace)
	}

	// Different options key a different entry.
	r3 := collect(t, e, q, WithoutOptimization())
	if r3.Stats.PlanCacheHit {
		t.Fatal("different options must not share a cache entry")
	}

	// Graph mutation invalidates: the new triple must appear.
	e.AddTriple("c", "p", "d")
	r4 := collect(t, e, q)
	if r4.Stats.PlanCacheHit {
		t.Fatal("run after graph mutation reported a cache hit")
	}
	if len(r4.Rows) != 3 {
		t.Fatalf("stale plan served stale data: rows=%v", r4.Rows)
	}
}

// TestPreparedStatementLifecycle asserts Prepare-then-run skips the
// optimizer, revalidates against graph mutation, and refuses runs after
// Close.
func TestPreparedStatementLifecycle(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	addChain(e, "p", "a", "b", "c")
	ctx := context.Background()

	stmt, err := e.Prepare("?x <- a p+ ?x")
	if err != nil {
		t.Fatal(err)
	}
	misses := e.PlanCacheStats().Misses
	for i := 0; i < 3; i++ {
		res, err := stmt.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Prepared {
			t.Fatal("prepared run not flagged")
		}
		if len(res.Rows) != 2 {
			t.Fatalf("rows = %v", res.Rows)
		}
	}
	if got := e.PlanCacheStats().Misses; got != misses {
		t.Fatalf("prepared runs re-ran the optimizer: misses %d -> %d", misses, got)
	}

	// Mutation: the statement re-prepares once and sees the new data.
	e.AddTriple("c", "p", "d")
	res, err := stmt.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("re-prepared statement missed new data: %v", res.Rows)
	}

	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Run(ctx); err == nil {
		t.Fatal("Run on a closed statement should fail")
	}
}

// TestStmtRevalidatesOnUseGraph: a prepared statement must re-prepare
// when the graph *object* is swapped, even if the new graph's generation
// counter happens to equal the old one — its constants were interned in
// the old dictionary, so generation alone is not identity.
func TestStmtRevalidatesOnUseGraph(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	// Graph A: "start" interns first (value 0) and reaches two nodes.
	gA := graphgen.NewGraph("a")
	gA.Add("start", "p", "a1")
	gA.Add("a1", "p", "a2")
	e.UseGraph(gA)
	stmt, err := e.Prepare("?x <- start p+ ?x")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	// Graph B: the SAME generation count (2 insertions) but a different
	// intern order, so A's interned "start" value names "bogus" in B's
	// dictionary. A stale plan anchored at that value would answer
	// {start, hitB}; the correct plan answers exactly {hitB}.
	gB := graphgen.NewGraph("b")
	gB.Add("bogus", "p", "start")
	gB.Add("start", "p", "hitB")
	if gB.Generation() != gA.Generation() {
		t.Fatalf("test setup: generations differ (%d vs %d), identity not isolated",
			gB.Generation(), gA.Generation())
	}
	e.UseGraph(gB)

	res, err := stmt.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "hitB" {
		t.Fatalf("statement served a plan from the old graph's dictionary: %v", res.Rows)
	}
}

// TestUseGraphFlushesPlanCache: swapping the graph object drops every
// cached plan (their constants are interned in the old dictionary).
func TestUseGraphFlushesPlanCache(t *testing.T) {
	e := openTest(t, Options{Workers: 2})
	addChain(e, "p", "a", "b")
	collect(t, e, "?x <- a p+ ?x")
	if e.PlanCacheStats().Entries == 0 {
		t.Fatal("no cache entry after a query")
	}
	e.UseGraph(graphgen.Yago(50, 3))
	if got := e.PlanCacheStats().Entries; got != 0 {
		t.Fatalf("UseGraph left %d cache entries", got)
	}
}

// TestConcurrentOptimizationsShareEdgeStats: queries optimized at once on
// one graph state share one statistics computation.
func TestConcurrentOptimizationsShareEdgeStats(t *testing.T) {
	e := openTest(t, Options{Workers: 2, PlanCacheSize: -1})
	e.UseGraph(graphgen.Yago(150, 19))
	queries := []string{
		"?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon",
		"?x,?y <- ?x isLocatedIn+/dealsWith+ ?y",
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			if _, err := e.Explain(context.Background(), q); err != nil {
				t.Error(err)
			}
		}(queries[i%len(queries)])
	}
	wg.Wait()
	e.stats.mu.Lock()
	defer e.stats.mu.Unlock()
	if e.stats.computed != 1 {
		t.Fatalf("8 concurrent optimizations computed statistics %d times", e.stats.computed)
	}
}
