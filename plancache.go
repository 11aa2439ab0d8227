package distmura

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graphgen"
)

// This file is the engine's plan cache: parse → rewrite-space exploration
// → cost-based selection is by far the most expensive driver-side step of
// a query (Fejza & Genevès, PAPERS.md, measure recursive plan enumeration
// as the dominating optimizer cost), and the paper's §IV cost-based
// selection is deterministic per (query text, options, graph statistics)
// — so its outcome can be reused until the graph changes. Entries are validated
// per predicate on every hit: each carries the footprint of the
// predicates its plan reads (see subresult.go), so a write to `follows`
// no longer invalidates a `cites+` plan. An LRU bound keeps the cache
// from growing with the workload's distinct-query count.

// planEntry is one cached optimization outcome: the chosen logical plan,
// its memory expectation, the explored plan-space size, and the footprint
// of the graph state the costing saw.
type planEntry struct {
	term      core.Term
	mem       cost.MemPlan
	planSpace int
	fp        footprint
}

// planCache is a generation-validated LRU keyed by query text plus
// normalized query options. Safe for concurrent use.
type planCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *planNode
	entries map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type planNode struct {
	key string
	e   planEntry
}

// newPlanCache returns a cache holding at most capacity entries;
// capacity <= 0 disables caching (every lookup misses, puts are dropped).
func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, lru: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the entry under key if its footprint still describes g (the
// predicates the plan reads are unchanged since costing); a stale entry is
// evicted on sight. A disabled cache (capacity <= 0) short-circuits
// without touching the hit/miss counters, so PlanCacheStats stays
// all-zero instead of mimicking a thrashing cache.
func (pc *planCache) get(key string, g *graphgen.Graph) (planEntry, bool) {
	if pc.cap <= 0 {
		return planEntry{}, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if ok {
		n := el.Value.(*planNode)
		if n.e.fp.valid(g) {
			pc.lru.MoveToFront(el)
			pc.hits.Add(1)
			return n.e, true
		}
		// The graph mutated since this plan was costed: invalidate.
		pc.lru.Remove(el)
		delete(pc.entries, key)
	}
	pc.misses.Add(1)
	return planEntry{}, false
}

// put stores an entry, evicting the least recently used one over capacity.
func (pc *planCache) put(key string, e planEntry) {
	if pc.cap <= 0 {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		el.Value.(*planNode).e = e
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[key] = pc.lru.PushFront(&planNode{key: key, e: e})
	if pc.lru.Len() > pc.cap {
		last := pc.lru.Back()
		pc.lru.Remove(last)
		delete(pc.entries, last.Value.(*planNode).key)
	}
}

// flush drops every entry (the graph object itself was replaced, so even
// the interned constants inside cached terms may be meaningless).
func (pc *planCache) flush() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.lru.Init()
	pc.entries = make(map[string]*list.Element)
}

// size returns the number of live entries.
func (pc *planCache) size() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

// PlanCacheStats reports the engine plan cache's effectiveness: Hits are
// queries that skipped the optimizer entirely, Misses ran it (including
// every Prepare and first-seen query), Entries is the current cache size.
type PlanCacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// PlanCacheStats returns the engine's plan-cache counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:    e.plans.hits.Load(),
		Misses:  e.plans.misses.Load(),
		Entries: e.plans.size(),
	}
}

// cacheKey normalizes the option set that affects logical optimization:
// the forced physical plan is deliberately excluded (it picks the fixpoint
// strategy at execution time, not the logical plan), while the plan-space
// cap and the no-optimize flag both change the optimizer's outcome and so
// key separate entries.
func (c *queryConfig) cacheKey(text string) string {
	return fmt.Sprintf("%s\x00opt=%t\x00max=%d", text, !c.noOptimize, c.maxPlans)
}
