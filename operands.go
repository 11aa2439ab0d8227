package distmura

import (
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/rewrite"
)

// This file is the driver's operand memo: the constant operands of the
// driver's glue evaluation — the join and antijoin sides derived by
// σ/π̃/ρ/⋈ from the graph, every fixpoint's constant part, and the query's
// root when it is not a chain of renames over a fixpoint — are kept as
// core.Operands with their join indexes in one engine-owned
// core.OperandMemo, so a later query at the same graph state neither
// re-derives nor re-indexes them; a warm query whose root the memo keeps
// evaluates nothing, and its cursor scans the kept relation in place. It is on whether or not the sub-result
// cache is, and budgeted like it (Options.SubResultCacheBytes, else
// TaskMemBytes) under OperandMemo's admission rule. An entry is keyed by
// the operand's fingerprint and stamped with the footprint — graph ID and
// the generations of the predicates it reads — snapshotted before
// deriving it. It is served only at that footprint: a write to a
// predicate it reads makes it stale, and a stale entry is dropped on
// sight, never refreshed. Replacing the graph flushes the memo.
//
// An operand containing fixpoints is kept only while the sub-result cache
// serves the query: its value depends only on the predicates it reads,
// whatever the cache served for the fixpoints inside it, and a hit stands
// in for those fixpoints. Without the cache, a hit never stands in for a
// µ result.

// operandProvider adapts the engine's operand memo to one query's
// execution (the physical.OperandProvider hook). graph is the snapshot
// runOnce bound the query's Env to, like subResultProvider's.
type operandProvider struct {
	memo      *core.OperandMemo
	graph     *graphgen.Graph
	fixpoints bool // keep operands that contain fixpoints
}

// Operand implements physical.OperandProvider. Only an operand whose one
// free variable is the triple relation, with a footprint of exact
// predicates, is kept; a bare fixpoint is left to the sub-result cache.
// The footprint is snapshotted before derive runs, so a write landing
// during the derivation leaves the entry stale, never wrong.
func (p *operandProvider) Operand(t core.Term, derive func() (*core.Relation, error)) (*core.Operand, bool, error) {
	if _, ok := t.(*core.Fixpoint); ok {
		return nil, false, nil
	}
	if fv := core.FreeVars(t); len(fv) != 1 || fv[0] != edgeRel {
		return nil, false, nil
	}
	if !p.fixpoints && containsFixpoint(t) {
		return nil, false, nil
	}
	fp := snapshotFootprint(p.graph, t)
	if fp.wildcard {
		return nil, false, nil
	}
	key, stamp := rewrite.Fingerprint(t), fp.stamp()
	if op := p.memo.Get(key, stamp); op != nil {
		return op, true, nil
	}
	rel, err := derive()
	if err != nil {
		return nil, false, err
	}
	return p.memo.Put(key, stamp, rel), false, nil
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

// OperandMemoStats returns the counters of the driver's operand memo.
func (e *Engine) OperandMemoStats() core.OperandMemoStats { return e.operands.Stats() }
