package distmura

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// recvDelta waits for one delta with a test-failing timeout.
func recvDelta(t *testing.T, w *Watch) WatchDelta {
	t.Helper()
	select {
	case d, ok := <-w.C:
		if !ok {
			t.Fatalf("watch channel closed: err=%v", w.Err())
		}
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a watch delta")
		return WatchDelta{}
	}
}

// TestWatchDeliversDeltas drives the standing-query lifecycle: initial
// snapshot, then per-mutation row deltas served through the refresh path,
// with irrelevant writes delivering nothing.
func TestWatchDeliversDeltas(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(subTestGraph())

	w, err := eng.Watch(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	initial := recvDelta(t, w)
	if len(initial.Added) == 0 || len(initial.Removed) != 0 {
		t.Fatalf("initial delta = %d added / %d removed, want full snapshot", len(initial.Added), len(initial.Removed))
	}
	seen := len(initial.Added)

	// One new edge: the delta is its new reachability pairs, nothing
	// removed, delivered off a cache refresh rather than a recompute.
	eng.AddTriple("n40", "knows", "w0")
	d := recvDelta(t, w)
	if len(d.Added) == 0 || len(d.Removed) != 0 {
		t.Fatalf("insert delta = %d added / %d removed, want additions only", len(d.Added), len(d.Removed))
	}
	if d.Stats.Refreshes == 0 {
		t.Errorf("watch re-evaluation did not use the refresh path: %+v", d.Stats)
	}
	for _, row := range d.Added {
		if strings.Join(row, "\t") == "" {
			t.Fatal("empty delta row")
		}
	}
	seen += len(d.Added)

	// A write to an unrelated predicate changes nothing: no delivery. Use
	// a follow-up relevant write to prove the silence wasn't lag.
	eng.AddTriple("m0", "likes", "quiet")
	eng.AddTriple("w0", "knows", "w1")
	d2 := recvDelta(t, w)
	for _, row := range d2.Added {
		if strings.Contains(strings.Join(row, "\t"), "quiet") {
			t.Fatal("likes write leaked into a knows watch delta")
		}
	}
	seen += len(d2.Added)

	// The accumulated snapshot must equal a direct query.
	res, err := eng.QueryCollect(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(res.Rows) {
		t.Errorf("watch accumulated %d rows, direct query has %d", seen, len(res.Rows))
	}

	w.Close()
	if _, ok := <-w.C; ok {
		t.Error("channel still open after Close")
	}
	if w.Err() != nil {
		t.Errorf("clean close reported error: %v", w.Err())
	}
}

// TestWatchCoalescesBursts checks that a burst of writes does not queue a
// delivery per write: the subscription catches up with the net difference.
//
// AddTriple is graph.Add followed by notifyWatchers, and the write
// contract (graphgen.Graph) forbids mutating the graph while a woken
// watcher scans it — so a burst issued through AddTriple races the
// evaluation its own first write started. The test issues the two halves
// of the N writes separately instead: all N inserts while the watcher is
// parked on its empty notify channel, then the N wakeups, which coalesce
// in the one-slot channel or find nothing left to deliver.
func TestWatchCoalescesBursts(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g := subTestGraph()
	eng.UseGraph(g)

	w, err := eng.Watch(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Once the initial snapshot is received the watcher reads nothing of
	// the graph until its next wakeup.
	added := map[string]bool{}
	for _, row := range recvDelta(t, w).Added {
		added[strings.Join(row, "\t")] = true
	}
	initial := len(added)

	const burst = 10
	for i := 0; i < burst; i++ {
		g.Add(fmt.Sprintf("b%d", i), "knows", fmt.Sprintf("b%d", i+1))
	}
	for i := 0; i < burst; i++ {
		eng.notifyWatchers()
	}

	deliveries := 0
	deadline := time.After(10 * time.Second)
	for len(added) < initial+burst*(burst+1)/2 {
		select {
		case d, ok := <-w.C:
			if !ok {
				t.Fatalf("watch ended early: %v", w.Err())
			}
			deliveries++
			for _, row := range d.Added {
				added[strings.Join(row, "\t")] = true
			}
			if len(d.Removed) != 0 {
				t.Fatalf("burst of inserts removed rows: %v", d.Removed)
			}
		case <-deadline:
			t.Fatalf("collected %d new pairs after %d deliveries, want %d", len(added)-initial, deliveries, burst*(burst+1)/2)
		}
	}
	if deliveries > burst {
		t.Errorf("burst of %d writes took %d deliveries; wakeups did not coalesce", burst, deliveries)
	}

	// The union of everything delivered is exactly a direct query of the
	// final state. (The watcher is parked again, or is replaying an empty
	// change-log window, which scans nothing.)
	res, err := eng.QueryCollect(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string]bool{}
	for _, row := range res.Rows {
		direct[strings.Join(row, "\t")] = true
	}
	if !mapsEqual(added, direct) {
		t.Fatalf("watch delivered %d distinct rows, the direct result has %d", len(added), len(direct))
	}
}

// TestWatchCancellation ends subscriptions via context and checks the
// parse-error fast path.
func TestWatchCancellation(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(subTestGraph())

	if _, err := eng.Watch(context.Background(), "not a query"); err == nil {
		t.Error("parse error did not fail Watch eagerly")
	}

	ctx, cancel := context.WithCancel(context.Background())
	w, err := eng.Watch(ctx, "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	recvDelta(t, w)
	cancel()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("subscription did not end after context cancellation")
	}
	if w.Err() != nil {
		t.Errorf("context cancellation reported error: %v", w.Err())
	}
	// Closing after cancellation is a safe no-op.
	w.Close()
}

// TestWatchCancelEndsBlockedDelivery: a subscriber that stops reading
// leaves the subscription parked on a delivery — the channel holds one
// delta — and cancelling the context must still end it.
func TestWatchCancelEndsBlockedDelivery(t *testing.T) {
	eng := openTest(t, Options{Workers: 2})
	eng.UseGraph(subTestGraph())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := eng.Watch(ctx, "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	// Receiving the initial delta orders the first evaluation's reads of
	// the graph before the writes below. Each write is made only once the
	// subscription has refreshed the closure for the one before, which
	// orders that refresh's reads before it (the refresh counter is an
	// atomic): a write while the subscription reads the graph is a data
	// race. The first delete's delta then fills the channel, so the
	// second's has nowhere to go.
	recvDelta(t, w)
	deadline := time.Now().Add(10 * time.Second)
	refreshed := func(before int64) {
		for eng.SubResultCacheStats().Refreshes == before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	before := eng.SubResultCacheStats().Refreshes
	eng.DeleteTriple("n10", "knows", "n11")
	refreshed(before)
	for len(w.C) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	before = eng.SubResultCacheStats().Refreshes
	eng.DeleteTriple("n12", "knows", "n13")
	refreshed(before)
	// Nothing marks the moment the delivery parks. A cancel that lands
	// before it ends the subscription in its evaluation instead, which
	// passes too; the pause makes the parked delivery the case tested.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not end a subscription parked on its delivery")
	}
	if w.Err() != nil {
		t.Errorf("context cancellation reported error: %v", w.Err())
	}
}

// TestNotifyWatchersNeverBlocks: notifyWatchers signals every watcher
// while holding e.watchMu, so a signal that waits for its subscriber
// would park every mutation entry point behind a consumer that stopped
// reading C. The stalled subscriber is registered the way Engine.Watch
// registers its own channel: capacity one, a wake-up already pending, and
// never drained — a real watcher parked in delivery. A real Watch is not
// driven there: that needs a write while its previous evaluation may
// still read the graph, which is a data race (see Engine).
func TestNotifyWatchersNeverBlocks(t *testing.T) {
	eng := openTest(t, Options{Workers: 2})
	eng.UseGraph(subTestGraph())
	stalled := make(chan struct{}, 1)
	stalled <- struct{}{}
	eng.watchMu.Lock()
	if eng.watchers == nil {
		eng.watchers = make(map[chan struct{}]struct{})
	}
	eng.watchers[stalled] = struct{}{}
	eng.watchMu.Unlock()

	calls := []struct {
		name string
		call func() error
	}{
		{"AddTriple", func() error { eng.AddTriple("n40", "knows", "w0"); return nil }},
		{"DeleteTriple", func() error {
			// UseGraph below restores the edge for the second round.
			if !eng.DeleteTriple("n10", "knows", "n11") {
				return fmt.Errorf("edge n10 knows n11 absent: nothing notified")
			}
			return nil
		}},
		{"LoadTSV", func() error { return eng.LoadTSV(strings.NewReader("w0\tknows\tw1\n")) }},
		{"UseGraph", func() error { eng.UseGraph(subTestGraph()); return nil }},
	}
	for round := 1; round <= 2; round++ {
		for _, c := range calls {
			done := make(chan error, 1)
			go func() { done <- c.call() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s (call %d): %v", c.name, round, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s (call %d) blocked on a stalled watcher", c.name, round)
			}
		}
	}
}

// checkDRedWindow asserts that the delivery d, covering a removal window
// that started at cache stats before, was served by the shared cache's
// in-place maintenance: a sub-result hit, a refresh, no invalidation.
func checkDRedWindow(t *testing.T, eng *Engine, before SubResultCacheStats, d WatchDelta) {
	t.Helper()
	after := eng.SubResultCacheStats()
	if d.Stats.SubResultHits < 1 {
		t.Errorf("removal window evaluated without a sub-result hit: %+v", d.Stats)
	}
	if after.Refreshes <= before.Refreshes {
		t.Errorf("removal window did not refresh the cached fixpoint: %d -> %d refreshes", before.Refreshes, after.Refreshes)
	}
	if after.Invalidations != before.Invalidations {
		t.Errorf("removal window invalidated %d cache entries, want DRed maintenance", after.Invalidations-before.Invalidations)
	}
}

// TestWatchMaintainedRemovals is the deletion test: a removal window must
// reach the subscription as the retracted derived rows, computed by the
// sub-result cache's DRed maintenance of the shared fixpoint (a hit that
// refreshed the entry, never an invalidation and recompute) — and rows
// that survive via an alternative path must not be reported removed.
func TestWatchMaintainedRemovals(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(dredDiamond())

	w, err := eng.Watch(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	initial := recvDelta(t, w)
	state := map[string]bool{}
	for _, row := range initial.Added {
		state[strings.Join(row, "\t")] = true
	}

	// Deleting b→d kills (b,d) and (b,e); (a,d) and (a,e) survive via c.
	before := eng.SubResultCacheStats()
	if !eng.DeleteTriple("b", "knows", "d") {
		t.Fatal("edge missing")
	}
	d := recvDelta(t, w)
	checkDRedWindow(t, eng, before, d)
	if d.Stats.Retractions == 0 || d.Stats.RederivedRows == 0 {
		t.Errorf("maintenance counters empty on an alternative-path delete: %+v", d.Stats)
	}
	removed := map[string]bool{}
	for _, row := range d.Removed {
		removed[strings.Join(row, "\t")] = true
	}
	if len(d.Added) != 0 || len(removed) != 2 || !removed["b\td"] || !removed["b\te"] {
		t.Fatalf("delta = +%v/-%v, want exactly (b,d),(b,e) removed", d.Added, d.Removed)
	}
	for _, row := range d.Removed {
		delete(state, strings.Join(row, "\t"))
	}

	// A mixed window: a delete and an insert, each landing while the
	// watcher is quiescent, delivered off the cached fixpoint until the
	// state converges on the direct result. The insert waits for the
	// delete's delivery, which orders the watcher's maintenance reads of
	// the graph before the insert writes it; graphgen.Graph's write
	// contract forbids the overlap, and a sleep would order nothing. The
	// direct query may refresh the entry before the watcher reads it, so
	// a delivery may say "[cached]" rather than "[refreshed]".
	apply := func(d WatchDelta) {
		if p := d.Stats.Plan; p != "[refreshed]" && p != "[cached]" {
			t.Fatalf("mixed window delivered by %q", d.Stats.Plan)
		}
		for _, row := range d.Added {
			state[strings.Join(row, "\t")] = true
		}
		for _, row := range d.Removed {
			delete(state, strings.Join(row, "\t"))
		}
	}
	eng.DeleteTriple("d", "knows", "e")
	apply(recvDelta(t, w))
	eng.AddTriple("c", "knows", "f")
	res, err := eng.QueryCollect(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string]bool{}
	for _, row := range res.Rows {
		direct[strings.Join(row, "\t")] = true
	}
	for !mapsEqual(state, direct) {
		apply(recvDelta(t, w))
	}
}

func mapsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestWatchMaintainedCoalescesDeletes: a multi-delete window must reach
// the subscription as ONE delta carrying the net retraction — the
// watcher's single wakeup has the cache maintain the whole change-log
// window in one DRed pass rather than delete-by-delete. The batch is
// applied to the graph directly (no per-write notify) and the final
// delete goes through the engine, which models a burst whose wakeups
// coalesced in the one-slot notify channel while keeping the mutations
// quiescent w.r.t. the watcher (the documented write contract).
func TestWatchMaintainedCoalescesDeletes(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g := subTestGraph()
	eng.UseGraph(g)

	w, err := eng.Watch(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	initial := recvDelta(t, w) // the watcher is now idle on its notify channel
	state := map[string]bool{}
	for _, row := range initial.Added {
		state[strings.Join(row, "\t")] = true
	}

	// The watcher is idle on its notify channel (the initial delta has
	// been received and no notify is pending), so mutating the graph
	// directly is quiescent. Five deletes land in one change-log window;
	// only the last goes through the engine and fires the wakeup.
	before := eng.SubResultCacheStats()
	for i := 0; i < 4; i++ {
		if !g.Delete(fmt.Sprintf("n%d", 20+i), "knows", fmt.Sprintf("n%d", 21+i)) {
			t.Fatalf("batch delete %d failed", i)
		}
	}
	if !eng.DeleteTriple("n5", "knows", "n6") {
		t.Fatal("engine delete failed")
	}

	d := recvDelta(t, w)
	checkDRedWindow(t, eng, before, d)
	if d.Stats.Retractions == 0 || len(d.Removed) == 0 {
		t.Fatalf("no retractions in the coalesced window: %+v", d.Stats)
	}
	for _, row := range d.Added {
		state[strings.Join(row, "\t")] = true
	}
	for _, row := range d.Removed {
		delete(state, strings.Join(row, "\t"))
	}
	// One delivery covered all five deletes: the accumulated state must
	// already equal the direct result.
	res, err := eng.QueryCollect(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(state) {
		t.Fatalf("watch state has %d rows after 1 delivery for 5 deletes, direct query %d", len(state), len(res.Rows))
	}
	for _, row := range res.Rows {
		if !state[strings.Join(row, "\t")] {
			t.Fatalf("direct-query row %v missing from watch state", row)
		}
	}
	select {
	case extra := <-w.C:
		t.Fatalf("window was split into a second delivery: %+v", extra.Stats)
	case <-time.After(300 * time.Millisecond):
	}
}

// TestWatchTeardownMidRetraction: Close (and context cancellation) must
// end the subscription promptly even when a retraction is being
// maintained or its delivery is blocked, without reporting an error.
func TestWatchTeardownMidRetraction(t *testing.T) {
	for _, mode := range []string{"close", "cancel"} {
		eng, err := Open(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		g := subTestGraph()
		eng.UseGraph(g)
		ctx, cancel := context.WithCancel(context.Background())
		w, err := eng.Watch(ctx, "?x,?y <- ?x knows+ ?y")
		if err != nil {
			t.Fatal(err)
		}
		// One quiesced delete round-trips; the second delete starts a
		// retraction whose maintenance or delivery is in flight when the
		// teardown lands (no further writes race the watcher's scan).
		recvDelta(t, w)
		eng.DeleteTriple("n10", "knows", "n11")
		recvDelta(t, w)
		eng.DeleteTriple("n20", "knows", "n21")
		if mode == "cancel" {
			cancel()
			select {
			case <-w.done:
			case <-time.After(10 * time.Second):
				t.Fatal("cancel did not end the subscription")
			}
		}
		w.Close() // in cancel mode a no-op; in close mode the teardown
		if w.Err() != nil {
			t.Errorf("%s teardown mid-retraction reported error: %v", mode, w.Err())
		}
		// Drain deliveries already buffered at teardown; the channel must
		// then report closed.
		for drained := 0; ; drained++ {
			if _, ok := <-w.C; !ok {
				break
			}
			if drained > 2 {
				t.Fatalf("%s: channel still delivering after teardown", mode)
			}
		}
		cancel()
		eng.Close()
	}
}

// TestWatchFallbackForIneligiblePlan: an anchored query's plan contains a
// projection, so a retraction below it does not imply a retraction of
// the projected row — the subscription's re-diff must still deliver
// exact removals.
func TestWatchFallbackForIneligiblePlan(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(subTestGraph())

	w, err := eng.Watch(context.Background(), "?y <- n0 knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	initial := recvDelta(t, w)
	state := map[string]bool{}
	for _, row := range initial.Added {
		state[strings.Join(row, "\t")] = true
	}

	// Sever the chain: everything past n4 that is only chain-reachable
	// from n0 must be removed.
	eng.DeleteTriple("n4", "knows", "n5")
	d := recvDelta(t, w)
	if len(d.Removed) == 0 {
		t.Fatal("re-diff delivered no removals for a severing delete")
	}
	for _, row := range d.Added {
		state[strings.Join(row, "\t")] = true
	}
	for _, row := range d.Removed {
		delete(state, strings.Join(row, "\t"))
	}
	res, err := eng.QueryCollect(context.Background(), "?y <- n0 knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(state) {
		t.Fatalf("watch state has %d rows, direct query %d", len(state), len(res.Rows))
	}
}

// TestWatchMaintainedSurvivesGraphSwap: UseGraph flushes the cached
// fixpoint (generations are per graph object); the subscription must
// deliver the exact cross-graph difference, and DRed maintenance of the
// entry rebuilt on the new graph must serve the next removal.
func TestWatchMaintainedSurvivesGraphSwap(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(subTestGraph())

	w, err := eng.Watch(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	initial := recvDelta(t, w)
	state := map[string]bool{}
	for _, row := range initial.Added {
		state[strings.Join(row, "\t")] = true
	}

	eng.UseGraph(dredDiamond())
	d := recvDelta(t, w)
	if len(d.Removed) == 0 || len(d.Added) == 0 {
		t.Fatalf("swap to a disjoint graph delivered +%d/-%d rows", len(d.Added), len(d.Removed))
	}
	for _, row := range d.Added {
		state[strings.Join(row, "\t")] = true
	}
	for _, row := range d.Removed {
		delete(state, strings.Join(row, "\t"))
	}
	res, err := eng.QueryCollect(context.Background(), "?x,?y <- ?x knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(state) {
		t.Fatalf("watch state has %d rows after swap, direct query %d", len(state), len(res.Rows))
	}

	// Maintenance must resume against the new graph.
	before := eng.SubResultCacheStats()
	eng.DeleteTriple("b", "knows", "d")
	d = recvDelta(t, w)
	checkDRedWindow(t, eng, before, d)
	if len(d.Removed) != 2 {
		t.Fatalf("post-swap delete removed %v, want (b,d),(b,e)", d.Removed)
	}
}
