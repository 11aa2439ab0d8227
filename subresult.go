package distmura

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/rewrite"
)

// This file is the engine's multi-query sub-result cache: concurrent
// sessions whose plans contain the same recursive subplan (by canonical
// fingerprint, rewrite.Fingerprint) share one materialized result instead
// of each paying the full distributed fixpoint. Fejza & Genevès
// (PAPERS.md) identify normalized recursive subexpressions as the sharing
// unit for transformation-based optimizers; here the fingerprint is the
// normalization, and sharing happens at three layers:
//
//   - the cost model treats a cached (or in-flight) fixpoint as costing
//     only its scan, steering plan selection toward reusable shapes;
//   - the physical planner consults the cache before executing any
//     fixpoint and injects a hit as if it were a base-relation scan;
//   - a second session arriving while the first still computes joins the
//     in-flight computation (single-flight) instead of duplicating it.
//
// Residency is charged to a dedicated MemGauge and bounded by LRU
// eviction of completed, unpinned entries — in-flight and pinned entries
// are never evicted (their memory is owned by the running query; the
// cache only defers the release of its own accounting). Validation is per
// predicate: each entry snapshots the generation counters of exactly the
// predicates its term reads (graphgen.Graph.PredGens), so a write to
// `follows` leaves `cites+` sub-results live. Replacing the graph object
// flushes everything.
//
// A stale entry is not necessarily lost work: when the entry's term is
// monotone in the graph and its footprint pins exact predicates, acquire
// upgrades the entry in place instead of evicting it. It fetches the net
// {added, removed} edge deltas from the graph's change log
// (Graph.DeltasSince); removed edges retract their transitive
// consequences by DRed (over-delete, then rederive survivors), and added
// edges seed a semi-naive delta resumed from the maintained rows to
// convergence (subresult_refresh.go) — cost proportional to the delta and
// what it derives or retracts, not to the graph. Non-monotone or wildcard
// entries keep the old behavior: evicted on sight at lookup, recomputed
// from scratch — a deletion can therefore never serve a stale entry, it
// is either maintained through DRed or evicted.
//
// The driver's operand memo is not here: it is the engine's OperandMemo
// (operands.go), on whether or not this cache is, and stamped with the
// same footprints.

// footprint identifies the graph state a cached artifact (plan or
// sub-result) was derived from: the graph's identity plus the generation
// counters of the predicates the term reads. Terms whose predicate reads
// cannot be pinned down (rewrite.PredFootprint wildcard, including terms
// that read no predicate at all) fall back to the global generation
// counter — exactly the old, coarse validation.
type footprint struct {
	graphID  uint64
	wildcard bool
	preds    []core.Value
	gens     []uint64 // aligned with preds
	gen      uint64   // global generation, wildcard entries only
}

// snapshotFootprint captures the current generations of the predicates t
// reads from g's triple relation.
func snapshotFootprint(g *graphgen.Graph, t core.Term) footprint {
	fp := footprint{graphID: g.ID()}
	preds, ok := rewrite.PredFootprint(t, edgeRel)
	if !ok || len(preds) == 0 {
		fp.wildcard = true
		fp.gen = g.Generation()
		return fp
	}
	fp.preds = preds
	fp.gens = g.PredGens(preds)
	return fp
}

// stamp returns the snapshot as a string, equal for equal snapshots of
// the same predicates: the operand memo's stamp.
func (f footprint) stamp() string { return fmt.Sprint(f.graphID, f.wildcard, f.gen, f.gens) }

// valid reports whether the snapshot still describes g: same graph object
// and no mutation of any predicate the term reads.
func (f footprint) valid(g *graphgen.Graph) bool {
	if g.ID() != f.graphID {
		return false
	}
	if f.wildcard {
		return g.Generation() == f.gen
	}
	for i, cur := range g.PredGens(f.preds) {
		if cur != f.gens[i] {
			return false
		}
	}
	return true
}

// subEntry is one cache slot, in one of three states:
//
//	in flight:  done != nil, rel == nil — a leader session is computing;
//	            waiters block on done and re-examine the entry after.
//	complete:   done == nil, rel != nil — resident, in the LRU, charged to
//	            the gauge, served to readers under a pin (refs).
//	refreshing: done != nil, rel != nil — a leader is upgrading a stale
//	            entry in place (delta-seeded semi-naive resume); out of
//	            the LRU for the duration, waiters use the same done-wait
//	            path as in flight. rel still holds the pre-refresh rows,
//	            which pinned readers keep using.
//
// gone marks an entry unlinked from the map (flushed, evicted, or its
// leader failed); a gone in-flight entry completes without publishing,
// and a gone pinned entry releases its gauge charge when the last pin
// drops.
//
// refreshable caches the upgrade gate (refreshableSubResult) decided once
// at entry creation from the term, so later lookups — including has(),
// which only sees the fingerprint — don't re-derive it.
type subEntry struct {
	key         string
	fp          footprint
	rel         *core.Relation
	bytes       int64
	refs        int
	gone        bool
	refreshable bool
	done        chan struct{}
	elem        *list.Element
}

// subResultCache is the engine-wide store. Safe for concurrent use; all
// state is guarded by mu except the monotonic counters.
type subResultCache struct {
	mu      sync.Mutex
	gauge   *core.MemGauge
	entries map[string]*subEntry
	lru     *list.List // completed resident entries; front = MRU

	hits          atomic.Int64
	misses        atomic.Int64
	waits         atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	refreshes     atomic.Int64
	refreshRows   atomic.Int64
	retractions   atomic.Int64
	rederived     atomic.Int64
}

// newSubResultCache returns a cache whose residency is budgeted at
// budgetBytes on a dedicated gauge (0 or negative = metering only, no
// eviction pressure). The gauge is deliberately standalone rather than a
// child of the cluster's driver gauge: a child mirrors its charges into
// the parent, so long-lived cache residency would permanently push every
// query's own budget over the line and force needless spilling. Nothing
// spills through it: it is only charged, released and asked Over.
func newSubResultCache(budgetBytes int64) *subResultCache {
	return &subResultCache{
		gauge:   core.NewMemGauge(budgetBytes, ""),
		entries: make(map[string]*subEntry),
		lru:     list.New(),
	}
}

// subResultBytes prices a materialized sub-result with the same constants
// the runtime accumulators charge, so the cache budget is comparable to
// Options.TaskMemBytes.
func subResultBytes(rel *core.Relation) int64 {
	return int64(core.AccRowBytes(rel.Arity())) * int64(rel.Len())
}

// acquireOutcome reports how one acquire resolved, beyond its return
// values: whether it ever blocked on another session's in-flight
// computation, and whether it served its hit by first upgrading a stale
// entry in place (refreshRows = rows that upgrade added).
type acquireOutcome struct {
	waited      bool
	refreshed   bool
	refreshRows int64
	retractions int64
	rederived   int64
}

// acquire resolves one fingerprint lookup:
//
//	(en, nil, _, nil)       completed hit — en is pinned; the caller must
//	                        release(en) when its query no longer needs the
//	                        cache to keep the entry's accounting alive.
//	(nil, complete, _, nil) the caller is the leader and must call
//	                        complete exactly once with its outcome.
//	(nil, nil, _, err)      ctx was cancelled while waiting on another
//	                        session's in-flight computation, or while this
//	                        session was refreshing a stale entry.
//
// A stale completed entry that passes the refresh gate is upgraded in
// place (see refreshLocked) and then served as a hit; anything else stale
// is evicted on sight. A waiter whose leader fails loops and may itself
// become the new leader — a failed computation (or refresh) never poisons
// the slot.
func (c *subResultCache) acquire(ctx context.Context, g *graphgen.Graph, key string, term core.Term) (en *subEntry, complete func(*core.Relation, error), out acquireOutcome, err error) {
	for {
		c.mu.Lock()
		cur, ok := c.entries[key]
		if ok && cur.done == nil {
			if cur.fp.valid(g) {
				cur.refs++
				c.lru.MoveToFront(cur.elem)
				c.mu.Unlock()
				c.hits.Add(1)
				return cur, nil, out, nil
			}
			// Stale. Staleness of a monotone entry — whether from inserts,
			// deletes or both — is repaired at delta cost; everything else
			// is evicted on sight.
			refreshed, st, rerr := c.refreshLocked(ctx, g, cur, term)
			if rerr != nil {
				c.mu.Unlock()
				return nil, nil, out, rerr
			}
			if refreshed {
				cur.refs++
				c.mu.Unlock()
				c.hits.Add(1)
				out.refreshed = true
				out.refreshRows += st.added
				out.retractions += st.retracted
				out.rederived += st.rederived
				return cur, nil, out, nil
			}
			if !cur.gone {
				c.removeLocked(cur)
				c.invalidations.Add(1)
			}
			ok = false
		}
		if ok {
			done := cur.done
			c.mu.Unlock()
			if !out.waited {
				out.waited = true
				c.waits.Add(1)
			}
			select {
			case <-done:
				continue // completed or leader failed; re-examine
			case <-ctx.Done():
				return nil, nil, out, ctx.Err()
			}
		}
		// Miss: this session leads. The footprint is snapshotted before
		// computing — a relevant write racing the computation makes the
		// published entry fail validation, never serve stale rows.
		fresh := &subEntry{key: key, fp: snapshotFootprint(g, term), done: make(chan struct{})}
		if fp, isFix := term.(*core.Fixpoint); isFix {
			_, fresh.refreshable = refreshableSubResult(fp)
			fresh.refreshable = fresh.refreshable && !fresh.fp.wildcard
		}
		c.entries[key] = fresh
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, c.completer(fresh), out, nil
	}
}

// refreshLocked attempts the in-place upgrade of a stale completed entry:
// fetch the net {added, removed} edge deltas for the entry's predicates
// from the graph's change log, maintain the fixpoint from the cached rows
// (DRed retraction for removals, semi-naive resume for inserts —
// subresult_refresh.go), and republish under the generations the delta
// brings the entry to. Called with c.mu held, returns with c.mu held; the
// lock is dropped for the computation itself, during which the entry is
// in the refreshing state (waiters block on done, has() prices it by its
// already-advanced footprint, the LRU cannot evict it).
//
// refreshed is false when the entry does not pass the gate (caller falls
// back to evict-on-sight — a delta containing removals therefore never
// touches an entry DRed cannot maintain) or when the refresh failed
// non-fatally (the entry has been removed; the caller loops and
// recomputes from scratch — a failed maintenance never poisons the slot).
// err is non-nil only when ctx was cancelled mid-refresh, which must
// fail the calling query.
func (c *subResultCache) refreshLocked(ctx context.Context, g *graphgen.Graph, en *subEntry, term core.Term) (refreshed bool, st refreshOutcome, err error) {
	if !en.refreshable || en.fp.wildcard || en.fp.graphID != g.ID() {
		return false, st, nil
	}
	fp, ok := term.(*core.Fixpoint)
	if !ok {
		return false, st, nil
	}
	added, removed, cur, ok := g.DeltasSince(en.fp.preds, en.fp.gens)
	if !ok {
		return false, st, nil
	}
	// Take the refresh lease. The footprint advances to the generations
	// the delta accounts for *before* computing — the same
	// snapshot-before-compute rule fresh leaders follow — so a write
	// racing the refresh re-stales the entry instead of letting it serve
	// rows it never derived.
	en.done = make(chan struct{})
	if en.elem != nil {
		c.lru.Remove(en.elem)
		en.elem = nil
	}
	old := en.rel
	en.fp.gens = cur
	c.mu.Unlock()

	st, rerr := refreshSubResult(ctx, g, fp, old, added, removed)

	c.mu.Lock()
	done := en.done
	en.done = nil
	defer close(done)
	if en.gone {
		// Flushed (or the graph was swapped) while refreshing: nothing to
		// publish; the old charge is settled by removeLocked/release.
		return false, st, nil
	}
	if rerr != nil {
		c.removeLocked(en)
		c.invalidations.Add(1)
		if ctx.Err() != nil {
			return false, st, rerr
		}
		return false, refreshOutcome{}, nil
	}
	// Swap the rows and re-price the slot. Pins taken on the old relation
	// keep reading it unharmed (relations are immutable once published);
	// the cache simply accounts for the new resident rows.
	c.gauge.Release(en.bytes)
	en.rel = st.rel
	en.bytes = subResultBytes(st.rel)
	c.gauge.Charge(en.bytes)
	en.elem = c.lru.PushFront(en)
	c.refreshes.Add(1)
	c.refreshRows.Add(st.added)
	c.retractions.Add(st.retracted)
	c.rederived.Add(st.rederived)
	c.evictOverBudgetLocked()
	return true, st, nil
}

// completer returns the leader's publication callback. On success the
// relation is charged and enters the LRU (possibly evicting colder
// entries over budget); on failure the slot is vacated so a waiter can
// take over. Either way done is closed exactly once, releasing waiters.
// The published relation must be fully materialized with its dedup set
// built (everything the planner returns is), since readers scan and probe
// it concurrently without synchronization.
func (c *subResultCache) completer(en *subEntry) func(*core.Relation, error) {
	return func(rel *core.Relation, err error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		done := en.done
		en.done = nil
		defer close(done)
		if en.gone {
			return // flushed while in flight; nothing to publish
		}
		if err != nil || rel == nil {
			delete(c.entries, en.key)
			en.gone = true
			return
		}
		en.rel = rel
		en.bytes = subResultBytes(rel)
		c.gauge.Charge(en.bytes)
		en.elem = c.lru.PushFront(en)
		c.evictOverBudgetLocked()
	}
}

// evictOverBudgetLocked walks the LRU from the cold end releasing
// completed, unpinned entries until the gauge is back under budget (or
// nothing evictable remains). In-flight entries are not in the LRU and
// pinned entries are skipped, so neither is ever evicted.
func (c *subResultCache) evictOverBudgetLocked() {
	el := c.lru.Back()
	for c.gauge.Over() && el != nil {
		prev := el.Prev()
		en := el.Value.(*subEntry)
		if en.refs == 0 {
			c.removeLocked(en)
			c.evictions.Add(1)
		}
		el = prev
	}
}

// removeLocked unlinks en from the map and LRU. The gauge charge is
// released now when unpinned, else deferred to the last release() — the
// rows are still feeding a running query, so the bytes are still real.
func (c *subResultCache) removeLocked(en *subEntry) {
	if en.gone {
		return
	}
	en.gone = true
	delete(c.entries, en.key)
	if en.elem != nil {
		c.lru.Remove(en.elem)
		en.elem = nil
	}
	if en.rel != nil && en.refs == 0 && en.bytes > 0 {
		c.gauge.Release(en.bytes)
		en.bytes = 0
	}
}

// release drops one pin taken by acquire.
func (c *subResultCache) release(en *subEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	en.refs--
	if en.refs == 0 {
		if en.gone {
			if en.bytes > 0 {
				c.gauge.Release(en.bytes)
				en.bytes = 0
			}
		} else if c.gauge.Over() {
			c.evictOverBudgetLocked()
		}
	}
}

// has reports whether a lookup for key would avoid a fresh computation —
// a valid entry (completed or in flight), or a stale completed entry the
// cache would upgrade in place at delta cost. The cost model's
// Catalog.Cached hook; touches no counters and no LRU order.
//
// In-flight entries get the same footprint validation as completed ones:
// a leader publishes under the footprint it snapshotted before computing,
// so a relevant write since then has already doomed the entry — pricing
// it at scan cost would steer plan selection toward a result that will
// never validate.
func (c *subResultCache) has(key string, g *graphgen.Graph) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.entries[key]
	if !ok {
		return false
	}
	if en.fp.valid(g) {
		return true
	}
	return en.done == nil && en.refreshable && !en.fp.wildcard && en.fp.graphID == g.ID()
}

// flush drops every entry — the graph object itself was replaced, so even
// the interned constants inside cached relations are meaningless.
// In-flight leaders finish computing for their own query but publish
// nothing. Nil-safe (a disabled cache is a nil *subResultCache).
func (c *subResultCache) flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, en := range c.entries {
		c.removeLocked(en)
	}
}

// SubResultCacheStats reports the sub-result cache's effectiveness.
// Hits served a materialized result without any full fixpoint execution,
// InFlightJoins blocked on (then shared) another session's computation,
// Misses computed and published, Evictions left under memory pressure,
// Invalidations were dropped because a predicate they read mutated (and
// the entry could not be upgraded), Refreshes were stale entries upgraded
// in place by delta maintenance (RefreshRows = rows those upgrades added;
// every refresh also counts as a hit). Retractions counts the cached rows
// DRed phase 1 over-deleted when maintaining entries through edge
// removals, and RederivedRows how many of those rederivation salvaged —
// their difference is the net rows deletion maintenance removed.
// Bytes/Entries describe current residency. The operand memo reports
// through Engine.OperandMemoStats.
type SubResultCacheStats struct {
	Hits          int64
	Misses        int64
	InFlightJoins int64
	Evictions     int64
	Invalidations int64
	Refreshes     int64
	RefreshRows   int64
	Retractions   int64
	RederivedRows int64
	Bytes         int64
	Entries       int
}

// SubResultCacheStats returns the engine's sub-result cache counters
// (all zero when the cache is disabled).
func (e *Engine) SubResultCacheStats() SubResultCacheStats {
	c := e.subs
	if c == nil {
		return SubResultCacheStats{}
	}
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return SubResultCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InFlightJoins: c.waits.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Refreshes:     c.refreshes.Load(),
		RefreshRows:   c.refreshRows.Load(),
		Retractions:   c.retractions.Load(),
		RederivedRows: c.rederived.Load(),
		Bytes:         c.gauge.Used(),
		Entries:       entries,
	}
}

// cacheableFixpoint gates what the cache may key: only fixpoints whose
// free relations are exactly the engine's triple relation. Anything
// referencing a per-query extra binding (QueryTerm) or a planner-internal
// materialization variable is computed privately.
func cacheableFixpoint(fp *core.Fixpoint) bool {
	for _, v := range core.FreeVars(fp) {
		if v != edgeRel {
			return false
		}
	}
	return true
}

// subResultProvider adapts the engine cache to one query's execution (the
// physical.SubResultProvider hook). It is used from the single driver
// goroutine running Execute, so its per-query counters and pin list are
// plain fields; pins are dropped right after Execute returns (the cache
// then resumes normal accounting — the relations themselves stay alive
// through whatever still references them).
// graph is deliberately the snapshot runOnce took when it bound the
// query's Env: the provider must validate and refresh against the same
// graph object the execution reads, even if UseGraph swaps the engine's
// graph mid-query (the cost model's hook, by contrast, outlives single
// executions and must resolve the engine's current graph at call time —
// see cachedTermPredicate).
type subResultProvider struct {
	ctx         context.Context
	cache       *subResultCache
	graph       *graphgen.Graph
	waits       int64
	refreshes   int64
	refreshRows int64
	retractions int64
	rederived   int64
	pinned      []*subEntry
}

// Lookup implements physical.SubResultProvider.
func (p *subResultProvider) Lookup(fp *core.Fixpoint) (*core.Relation, bool, func(*core.Relation, error), error) {
	if !cacheableFixpoint(fp) {
		return nil, false, nil, nil
	}
	key := rewrite.Fingerprint(fp)
	en, complete, out, err := p.cache.acquire(p.ctx, p.graph, key, fp)
	if out.waited {
		p.waits++
	}
	if out.refreshed {
		p.refreshes++
		p.refreshRows += out.refreshRows
		p.retractions += out.retractions
		p.rederived += out.rederived
	}
	if err != nil {
		return nil, false, nil, err
	}
	if en != nil {
		p.pinned = append(p.pinned, en)
		return en.rel, out.refreshed, nil, nil
	}
	return nil, false, complete, nil
}

// releaseAll drops every pin this query holds.
func (p *subResultProvider) releaseAll() {
	for _, en := range p.pinned {
		p.cache.release(en)
	}
	p.pinned = nil
}

// cachedTermPredicate returns the cost model's Catalog.Cached hook, or
// nil when the cache is disabled. The graph is resolved inside the hook
// at call time, never captured: a hook built before UseGraph swaps the
// engine's graph would otherwise validate fingerprints against the
// retired graph object — and since generations are per graph, the retired
// and current graphs can even agree on a generation count, turning the
// staleness into silent mis-pricing rather than a conservative miss.
func (e *Engine) cachedTermPredicate() func(core.Term) bool {
	if e.subs == nil {
		return nil
	}
	return func(t core.Term) bool {
		fp, ok := t.(*core.Fixpoint)
		if !ok || !cacheableFixpoint(fp) {
			return false
		}
		return e.subs.has(rewrite.Fingerprint(fp), e.graph)
	}
}
