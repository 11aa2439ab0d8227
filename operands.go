package distmura

import (
	"context"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/physical"
	"repro/internal/rewrite"
)

// This file is the driver store: what the driver derives from the graph
// is kept as core.Operands, with their join indexes, in one engine-owned
// core.OperandMemo, so a later query at the same graph state neither
// re-derives nor re-indexes it. The memo keeps the constant operands of
// the driver's glue evaluation — the join and antijoin sides derived by
// σ/π̃/ρ/⋈ from the graph — every fixpoint's constant part and value, and
// the query's root when it is not a chain of renames over a fixpoint; a
// warm query whose root the memo keeps evaluates nothing, and its cursor
// scans the kept relation in place. Everything is budgeted at once
// (Options.SubResultCacheBytes, else TaskMemBytes) under OperandMemo's
// admission rule. An entry is keyed by its term's fingerprint and
// stamped with the footprint — graph ID and the generations of the
// predicates it reads — snapshotted before deriving it. It is served only
// at that footprint: a write to a predicate it reads makes it stale, and
// a stale entry is dropped on sight, except a µ result the sub-result
// cache can refresh (subresult.go). Replacing the graph, or closing the
// engine, flushes the memo.
//
// µ results, and operands containing fixpoints, are kept only while the
// sub-result cache serves the query: an operand's value depends only on
// the predicates it reads, whatever the cache served for the fixpoints
// inside it, and a hit stands in for those fixpoints. Without the cache,
// a hit never stands in for a µ result.

// operandProvider adapts the driver store to one query's execution (the
// physical.OperandProvider hook). It is used from the single driver
// goroutine running the query, so its per-query counters are plain
// fields. graph is deliberately the snapshot runOnce took when it bound
// the query's Env: the provider must validate and refresh against the
// same graph object the execution reads, even if UseGraph swaps the
// engine's graph mid-query (the cost model's hook, by contrast, outlives
// single executions and must resolve the engine's current graph at call
// time — see cachedTermPredicate).
type operandProvider struct {
	ctx   context.Context
	memo  *core.OperandMemo
	subs  *subResultCache // keeps µ results; nil: no fixpoint is kept
	graph *graphgen.Graph

	waits       int64
	refreshes   int64
	refreshRows int64
	retractions int64
	rederived   int64
}

// Operand implements physical.OperandProvider. A fixpoint is kept by the
// sub-result cache. Any other operand is kept only when its one free
// variable is the triple relation and its footprint pins exact
// predicates. The footprint is snapshotted before derive runs, so a write
// landing during the derivation leaves the entry stale, never wrong.
func (p *operandProvider) Operand(t core.Term, derive func() (*core.Relation, error)) (*core.Operand, physical.Hit, error) {
	if fp, ok := t.(*core.Fixpoint); ok {
		return p.fixpoint(fp, derive)
	}
	if fv := core.FreeVars(t); len(fv) != 1 || fv[0] != edgeRel {
		return nil, physical.Miss, nil
	}
	if p.subs == nil && containsFixpoint(t) {
		return nil, physical.Miss, nil
	}
	fp := snapshotFootprint(p.graph, t)
	if fp.wildcard {
		return nil, physical.Miss, nil
	}
	key, stamp := rewrite.Fingerprint(t), fp.stamp()
	if op := p.memo.Get(key, stamp); op != nil {
		return op, physical.Kept, nil
	}
	rel, err := derive()
	if err != nil {
		return nil, physical.Miss, err
	}
	return p.memo.Put(key, stamp, rel), physical.Miss, nil
}

// fixpoint serves a µ result through the sub-result cache's lease.
func (p *operandProvider) fixpoint(fp *core.Fixpoint, derive func() (*core.Relation, error)) (*core.Operand, physical.Hit, error) {
	if p.subs == nil || !cacheableFixpoint(fp) {
		return nil, physical.Miss, nil
	}
	op, out, err := p.subs.operand(p.ctx, p.graph, rewrite.Fingerprint(fp), fp, derive)
	if out.waited {
		p.waits++
	}
	hit := physical.Miss
	switch {
	case out.refreshed:
		hit = physical.Refreshed
		p.refreshes++
		p.refreshRows += out.refreshRows
		p.retractions += out.retractions
		p.rederived += out.rederived
	case out.hit:
		hit = physical.Kept
	}
	return op, hit, err
}

func containsFixpoint(t core.Term) bool {
	found := false
	core.Walk(t, func(n core.Term) bool {
		if _, ok := n.(*core.Fixpoint); ok {
			found = true
		}
		return !found
	})
	return found
}

// OperandMemoStats returns the counters of the driver store: every
// operand, seed, root and µ result the engine keeps, and their residency.
func (e *Engine) OperandMemoStats() core.OperandMemoStats { return e.operands.Stats() }

// flushStore empties the driver store: the sub-result cache's entries
// first, so no leader keeps its rows in the memo once it is flushed.
func (e *Engine) flushStore() {
	e.subs.flush()
	e.operands.Flush()
}
