package distmura

import (
	"context"
	"strings"
	"sync"

	"repro/internal/ucrpq"
)

// This file is the standing-query surface over the live graph: a Watch
// delivers the row-level difference of its query result after every
// engine mutation. There is one evaluation path. Each wakeup runs the
// query through the engine (QueryCollect: the plan cache, then the
// sub-result cache) and diffs the rendered rows against the previous
// delivery. A watcher keeps no fixpoint state of its own: a cached
// fixpoint made stale by the mutation is maintained once, in place, by
// the sub-result cache (DRed for deletions, the semi-naive resume for
// inserts — subresult_refresh.go), and every watcher and query reading
// that fixpoint shares the maintained rows.

// WatchDelta is one update from a standing subscription: the result rows
// that appeared (Added) and disappeared (Removed) since the previous
// delivery, rendered like Result.Rows, plus the stats of the evaluation
// that produced them. The first delta of a subscription carries the full
// initial result in Added (possibly empty — it doubles as the "snapshot
// established" signal). Removed is populated by edge deletions
// (DeleteTriple), UseGraph swaps, and non-monotone queries. Stats is the
// QueryStats of the evaluation behind the delivery: when it served a
// stale cached fixpoint, Plan reads "[refreshed]" and the maintenance
// counters (Refreshes, Retractions, RederivedRows) say what the cache's
// DRed and resume pass did; a fixpoint another session already refreshed
// reads "[cached]".
type WatchDelta struct {
	Added   [][]string
	Removed [][]string
	Stats   QueryStats
}

// Watch is a standing subscription created by Engine.Watch. Receive
// deltas from C; when C closes, Err reports the query failure that
// terminated the subscription (nil after Close or context cancellation).
type Watch struct {
	// C delivers one WatchDelta per observed change, coalescing bursts: a
	// batch of writes arriving while an evaluation runs yields one
	// re-evaluation, not one per write, and its delta is the exact net
	// difference between the two evaluated results.
	C <-chan WatchDelta

	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	err    error
}

// Close ends the subscription and waits for its goroutine to exit; C is
// closed. Safe to call more than once.
func (w *Watch) Close() {
	w.cancel()
	<-w.done
}

// Err returns the error that terminated the subscription: nil while it
// runs and after a clean shutdown (Close or context cancellation), the
// evaluation error otherwise.
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Watch runs text as a standing UCRPQ: the subscription first delivers
// the full initial result, then after every mutation (AddTriple,
// DeleteTriple, LoadTSV, UseGraph) delivers the row difference, skipping
// deltas for mutations that did not change the result. Every delivery
// re-evaluates the query through the plan and sub-result caches and
// diffs the whole result against the previous one; cached fixpoints are
// brought up to date by the cache's own maintenance, shared with every
// other reader. Query options apply to every evaluation. The subscription
// ends when ctx is cancelled, Close is called, or an evaluation fails
// (see Watch.Err). Each evaluation reads the graph: see Engine on writes.
//
// A parse error fails Watch itself rather than arriving asynchronously.
func (e *Engine) Watch(ctx context.Context, text string, opts ...QueryOption) (*Watch, error) {
	if _, err := ucrpq.ParseUnion(text); err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	out := make(chan WatchDelta, 1)
	notify := make(chan struct{}, 1)
	w := &Watch{C: out, cancel: cancel, done: make(chan struct{})}
	e.watchMu.Lock()
	if e.watchers == nil {
		e.watchers = make(map[chan struct{}]struct{})
	}
	e.watchers[notify] = struct{}{}
	e.watchMu.Unlock()
	go w.loop(e, wctx, text, opts, out, notify)
	return w, nil
}

// notifyWatchers wakes every standing subscription. Each watcher channel
// has capacity one and the send never blocks (TestNotifyWatchersNeverBlocks),
// so a burst of writes coalesces into a single pending wakeup per watcher.
func (e *Engine) notifyWatchers() {
	e.watchMu.Lock()
	for ch := range e.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	e.watchMu.Unlock()
}

// diffRows diffs rendered rows against the previous delivery's key map,
// returning the new map and the row-level delta.
func diffRows(last map[string][]string, rows [][]string) (map[string][]string, WatchDelta) {
	curr := make(map[string][]string, len(rows))
	var delta WatchDelta
	for _, row := range rows {
		k := strings.Join(row, "\x00")
		if _, dup := curr[k]; dup {
			continue
		}
		curr[k] = row
		if _, ok := last[k]; !ok {
			delta.Added = append(delta.Added, row)
		}
	}
	for k, row := range last {
		if _, ok := curr[k]; !ok {
			delta.Removed = append(delta.Removed, row)
		}
	}
	return curr, delta
}

// loop is the subscription goroutine: per wakeup, re-evaluate through
// the engine and deliver the diff against the previous delivery.
func (w *Watch) loop(e *Engine, ctx context.Context, text string, opts []QueryOption, out chan<- WatchDelta, notify chan struct{}) {
	defer func() {
		e.watchMu.Lock()
		delete(e.watchers, notify)
		e.watchMu.Unlock()
		close(out)
		close(w.done)
	}()
	// last maps a canonical row key to the row itself. Keys are rendered
	// strings, not interned values: UseGraph swaps dictionaries, and the
	// diff must stay meaningful across the swap.
	last := map[string][]string{}
	for first := true; ; first = false {
		if !first {
			select {
			case <-ctx.Done():
				return
			case <-notify:
			}
		}
		res, err := e.QueryCollect(ctx, text, opts...)
		if err != nil {
			if ctx.Err() == nil {
				w.mu.Lock()
				w.err = err
				w.mu.Unlock()
			}
			return
		}
		var delta WatchDelta
		last, delta = diffRows(last, res.Rows)
		delta.Stats = res.Stats
		if !first && len(delta.Added) == 0 && len(delta.Removed) == 0 {
			continue
		}
		select {
		case out <- delta:
		case <-ctx.Done():
			return
		}
	}
}
