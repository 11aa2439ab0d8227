package distmura

import (
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
//   - the physical planner asks the driver store (operands.go) for every
//     fixpoint before executing it and injects a hit as if it were a
//     base-relation scan;
//   - a second session arriving while the first still computes joins the
//     in-flight computation (single-flight) instead of duplicating it.
//
// The rows are not here: they are entries of the driver store, the
// engine's one OperandMemo, keyed by fingerprint and stamped with the
// footprint, charged and evicted with every operand, seed and root it
// keeps. This cache keeps only what the memo does not: the single-flight
// lease, and the footprint and refresh gate of each µ result.
// Validation is per predicate: each entry snapshots the generation
// counters of exactly the predicates its term reads
// (graphgen.Graph.PredGens), so a write to `follows` leaves `cites+`
// sub-results live. Replacing the graph object flushes everything.
//
// A stale entry is not necessarily lost work: when the entry's term is
// monotone in the graph and its footprint pins exact predicates, operand
// upgrades the entry in place instead of dropping it. It fetches the net
// {added, removed} edge deltas from the graph's change log
// (Graph.DeltasSince); removed edges retract their transitive
// consequences by DRed (over-delete, then rederive survivors), and added
// edges seed a semi-naive delta resumed from the maintained rows to
// convergence (subresult_refresh.go) — cost proportional to the delta and
// what it derives or retracts, not to the graph. Non-monotone or wildcard
// entries are dropped on sight at lookup and recomputed from scratch — a
// deletion can therefore never serve a stale entry, it is either
// maintained through DRed or dropped.

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

// subEntry is the cache's record of one µ result, whose rows the operand
// memo keeps under key at stamp. It is in flight while done != nil: a
// leader is deriving the rows, or refreshing them from a graph delta, and
// other sessions wait on done, then look again. The footprint is the
// snapshot the rows are stamped with; refreshable caches the upgrade gate
// (refreshableSubResult), decided once from the term at entry creation,
// so has(), which sees only the fingerprint, does not re-derive it.
type subEntry struct {
	fp          footprint
	stamp       string // fp.stamp()
	refreshable bool
	done        chan struct{}
}

// subResultCache is the single-flight lease over the µ results the
// engine's operand memo keeps, and their footprints. The memo holds the
// rows, charges them and evicts them; an entry whose rows it evicted is
// dropped when next looked up, or when a leader publishes. Safe for
// concurrent use; entries are guarded by mu, which is taken before the
// memo's lock, never after it.
type subResultCache struct {
	memo    *core.OperandMemo
	mu      sync.Mutex
	entries map[string]*subEntry

	hits          atomic.Int64
	misses        atomic.Int64
	waits         atomic.Int64
	invalidations atomic.Int64
	refreshes     atomic.Int64
	refreshRows   atomic.Int64
	retractions   atomic.Int64
	rederived     atomic.Int64
}

// newSubResultCache returns a cache keeping its µ results in memo.
func newSubResultCache(memo *core.OperandMemo) *subResultCache {
	return &subResultCache{memo: memo, entries: make(map[string]*subEntry)}
}

// lookupOutcome reports how one lookup resolved, beyond its operand:
// whether it was served from the memo (hit), whether it ever blocked on
// another session's in-flight computation, and whether it served its hit
// by first upgrading a stale entry in place (refreshRows = rows that
// upgrade added).
type lookupOutcome struct {
	hit         bool
	waited      bool
	refreshed   bool
	refreshRows int64
	retractions int64
	rederived   int64
}

// operand returns the µ result kept under key, deriving it on a miss. A
// valid entry is served from the memo. A stale entry that passes the
// refresh gate is upgraded in place (see refreshLocked) and then served as
// a hit; anything else stale is dropped on sight. While another session
// derives or refreshes the entry, operand waits for it, and fails with
// ctx's error if ctx is cancelled first. On a miss the caller leads: the
// footprint is snapshotted, derive runs without the lock, and its rows are
// kept in the memo — a relevant write racing the computation makes them
// fail validation, never serve stale rows. A leader whose derive fails
// vacates the entry, and a waiter may then lead: a failed computation (or
// refresh) never poisons the slot. The rows derive returns must be fully
// materialized, since readers scan and probe them concurrently without
// synchronization (everything the planner returns is).
func (c *subResultCache) operand(ctx context.Context, g *graphgen.Graph, key string, term core.Term, derive func() (*core.Relation, error)) (*core.Operand, lookupOutcome, error) {
	var out lookupOutcome
	for {
		c.mu.Lock()
		en := c.entries[key]
		if en != nil && en.done == nil {
			valid := en.fp.valid(g)
			if valid {
				if op := c.memo.Get(key, en.stamp); op != nil {
					c.mu.Unlock()
					c.hits.Add(1)
					out.hit = true
					return op, out, nil
				}
			} else {
				// Staleness of a monotone entry — whether from inserts,
				// deletes or both — is repaired at delta cost.
				op, st, err := c.refreshLocked(ctx, g, key, en, term)
				if err != nil {
					c.mu.Unlock()
					return nil, out, err
				}
				if op != nil {
					c.mu.Unlock()
					c.hits.Add(1)
					out.hit, out.refreshed = true, true
					out.refreshRows, out.retractions, out.rederived = st.added, st.retracted, st.rederived
					return op, out, nil
				}
			}
			// Evicted from the memo, or stale beyond repair: drop it and
			// look again.
			if c.entries[key] == en {
				delete(c.entries, key)
				if !valid {
					c.invalidations.Add(1)
				}
			}
			c.mu.Unlock()
			continue
		}
		if en != nil {
			done := en.done
			c.mu.Unlock()
			if !out.waited {
				out.waited = true
				c.waits.Add(1)
			}
			select {
			case <-done:
				continue // published, or the leader failed; look again
			case <-ctx.Done():
				return nil, out, ctx.Err()
			}
		}
		en = &subEntry{fp: snapshotFootprint(g, term), done: make(chan struct{})}
		en.stamp = en.fp.stamp()
		if fp, isFix := term.(*core.Fixpoint); isFix && !en.fp.wildcard {
			_, en.refreshable = refreshableSubResult(fp)
		}
		c.entries[key] = en
		c.mu.Unlock()
		c.misses.Add(1)
		rel, err := derive()
		return c.publish(key, en, rel, err), out, err
	}
}

// publish ends a leader's lease: its rows are kept in the memo, or, when
// derive failed, the entry is vacated. Either way waiters are released.
// Rows derived while the cache was flushed are returned to the leader as
// an operand nothing keeps. Entries whose rows the memo has evicted are
// dropped here, so the cache records no more µ results than the memo
// holds, plus those in flight.
func (c *subResultCache) publish(key string, en *subEntry, rel *core.Relation, err error) *core.Operand {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(en.done)
	en.done = nil
	switch {
	case c.entries[key] != en:
		if err != nil {
			return nil
		}
		return core.NewOperand(rel, nil)
	case err != nil:
		delete(c.entries, key)
		return nil
	}
	op := c.memo.Put(key, en.stamp, rel)
	for k, other := range c.entries {
		if other.done == nil && !c.memo.Holds(k, other.stamp) {
			delete(c.entries, k)
		}
	}
	return op
}

// refreshLocked attempts the in-place upgrade of a stale entry: fetch the
// net {added, removed} edge deltas for the entry's predicates from the
// graph's change log, maintain the fixpoint from the rows the memo keeps
// (DRed retraction for removals, semi-naive resume for inserts —
// subresult_refresh.go), and keep the new rows under the generations the
// delta brings the entry to. Called with c.mu held, returns with c.mu
// held; the lock is dropped for the computation itself, during which the
// entry is in flight (waiters block on done, has() prices it by its
// already-advanced footprint).
//
// op is nil when the entry does not pass the gate, its rows were
// evicted, or the refresh failed non-fatally (the entry has been removed;
// the caller looks again and recomputes from scratch — a failed
// maintenance never poisons the slot). err is non-nil only when ctx was
// cancelled mid-refresh, which must fail the calling query.
func (c *subResultCache) refreshLocked(ctx context.Context, g *graphgen.Graph, key string, en *subEntry, term core.Term) (op *core.Operand, st refreshOutcome, err error) {
	fp, ok := term.(*core.Fixpoint)
	if !ok || !en.refreshable || en.fp.graphID != g.ID() {
		return nil, st, nil
	}
	old := c.memo.Get(key, en.stamp)
	if old == nil {
		return nil, st, nil
	}
	added, removed, cur, ok := g.DeltasSince(en.fp.preds, en.fp.gens)
	if !ok {
		return nil, st, nil
	}
	// Take the refresh lease. The footprint advances to the generations
	// the delta accounts for *before* computing — the same
	// snapshot-before-compute rule fresh leaders follow — so a write
	// racing the refresh re-stales the entry instead of letting it serve
	// rows it never derived.
	done := make(chan struct{})
	defer close(done)
	en.done = done
	en.fp.gens = cur
	en.stamp = en.fp.stamp()
	c.mu.Unlock()

	st, rerr := refreshSubResult(ctx, g, fp, old.Rel(), added, removed)

	c.mu.Lock()
	en.done = nil
	if c.entries[key] != en {
		// Flushed (or the graph was swapped) while refreshing: nothing to
		// keep.
		return nil, st, nil
	}
	if rerr != nil {
		delete(c.entries, key)
		c.invalidations.Add(1)
		if ctx.Err() != nil {
			return nil, st, rerr
		}
		return nil, refreshOutcome{}, nil
	}
	// Readers of the old rows keep reading them unharmed: relations are
	// immutable once kept, and the memo replaces the entry.
	op = c.memo.Put(key, en.stamp, st.rel)
	c.refreshes.Add(1)
	c.refreshRows.Add(st.added)
	c.retractions.Add(st.retracted)
	c.rederived.Add(st.rederived)
	return op, st, nil
}

// has reports whether a lookup for key would avoid a fresh computation —
// a valid entry (kept or in flight), or a stale kept entry the cache
// would upgrade in place at delta cost. The cost model's Catalog.Cached
// hook; touches no counters and no recency order.
//
// In-flight entries get the same footprint validation as kept ones: a
// leader publishes under the footprint it snapshotted before computing,
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
	switch {
	case !ok:
		return false
	case en.done != nil:
		return en.fp.valid(g)
	case en.fp.valid(g) || en.refreshable && en.fp.graphID == g.ID():
		return c.memo.Holds(key, en.stamp)
	}
	return false
}

// flush drops every entry — the graph object itself was replaced, so even
// the interned constants inside kept relations are meaningless. The
// engine flushes the memo after it (Engine.flushStore). In-flight leaders
// finish computing for their own query but keep nothing. Nil-safe (a
// disabled cache is a nil *subResultCache).
func (c *subResultCache) flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
}

// SubResultCacheStats reports the sub-result cache's effectiveness.
// Hits served a kept result without any full fixpoint execution,
// InFlightJoins blocked on (then shared) another session's computation,
// Misses computed and kept, Invalidations were dropped because a
// predicate they read mutated (and the entry could not be upgraded),
// Refreshes were stale entries upgraded in place by delta maintenance
// (RefreshRows = rows those upgrades added; every refresh also counts as
// a hit). Retractions counts the kept rows DRed phase 1 over-deleted when
// maintaining entries through edge removals, and RederivedRows how many
// of those rederivation salvaged — their difference is the net rows
// deletion maintenance removed. The rows live in the operand memo, which
// reports residency and evictions (Engine.OperandMemoStats).
type SubResultCacheStats struct {
	Hits          int64
	Misses        int64
	InFlightJoins int64
	Invalidations int64
	Refreshes     int64
	RefreshRows   int64
	Retractions   int64
	RederivedRows int64
}

// SubResultCacheStats returns the engine's sub-result cache counters
// (all zero when the cache is disabled).
func (e *Engine) SubResultCacheStats() SubResultCacheStats {
	c := e.subs
	if c == nil {
		return SubResultCacheStats{}
	}
	return SubResultCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InFlightJoins: c.waits.Load(),
		Invalidations: c.invalidations.Load(),
		Refreshes:     c.refreshes.Load(),
		RefreshRows:   c.refreshRows.Load(),
		Retractions:   c.retractions.Load(),
		RederivedRows: c.rederived.Load(),
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
