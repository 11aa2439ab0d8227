package core

import (
	"os"
	"sync/atomic"
)

// This file is the memory-governance surface of the data plane. The
// MemGauge governs what happens when an operator outgrows its task's
// memory budget at run time, whichever plan runs: instead of OOMing, the
// fixpoint Accumulator — the one operator structure that grows without
// bound — evicts frozen shards to disk (see accumulator.go). Join indexes
// are charged but never spilled: their rows alias a resident relation,
// so the charge only pushes the task's accumulators toward eviction.
// ARCHITECTURE.md ("Memory governance") documents the budget model: what
// is charged, what is not, and the over-budget behavior of every
// structure.

// Accounting constants of the budget model. They price the *operator-owned*
// state per row; input relations owned by the storage layer (tables,
// broadcasts, partitions) are not charged to the gauge.
const (
	// accSlotBytes is the per-row bookkeeping of an Accumulator beyond the
	// row's values: the stored 64-bit hash plus the dedup-set slot, 8 + 8
	// bytes since a slot became one word. The price is deliberately kept,
	// so budgets, spill decisions and the cost estimator's memory
	// predictions do not move with the table's layout.
	accSlotBytes = 12
	// IndexRowBytes prices one indexed row of an in-memory JoinIndex: the
	// bucket reference plus amortized bucket-map overhead (the row values
	// themselves alias the indexed relation and are not charged twice).
	IndexRowBytes = 24
	// runFingerprintBytes is what one evicted row retains in memory: its
	// 32-bit fingerprint in the frozen run's filter.
	runFingerprintBytes = 4
)

// AccRowBytes prices one in-memory Accumulator row of the given arity
// under the budget model: the row's values plus hash and dedup-slot
// bookkeeping. The cost estimator's Estimate.Mem uses the same constant,
// so the estimator and the runtime gauge agree on units.
func AccRowBytes(arity int) int64 { return int64(8*arity + accSlotBytes) }

// MemGauge is a per-task memory budget that operators charge as they grow
// and release as they shrink or spill. A nil gauge (or a zero budget)
// means unlimited: every method is safe on a nil receiver and reports
// "never over budget", so operators charge unconditionally.
//
// Concurrency: all methods are safe for concurrent use; the counters are
// atomics. One gauge is shared by every operator of one task (a worker's
// fixpoint accumulator, its shuffle filter, its join indexes), which is
// exactly what makes the budget a *task* budget rather than a per-structure
// one.
type MemGauge struct {
	budget int64  // bytes; <= 0 means unlimited
	dir    string // spill directory; "" means os.TempDir()
	// parent, when non-nil, aggregates this gauge: every Charge/Release
	// and spill event is mirrored into it (metering only — Over consults
	// this gauge's own budget). A per-query child of a per-worker parent
	// gives exact per-query attribution while the worker keeps a
	// cumulative view.
	parent *MemGauge

	used    atomic.Int64
	peak    atomic.Int64
	spills  atomic.Int64
	spilled atomic.Int64 // bytes written to spill runs, cumulative
	// Read side of the spill accounting: accesses to spill runs and the
	// bytes they covered, cumulative.
	spillReads     atomic.Int64
	spillReadBytes atomic.Int64
}

// NewMemGauge returns a gauge with the given budget in bytes (<= 0 means
// metering only, never over budget) spilling into dir ("" = os.TempDir()).
func NewMemGauge(budgetBytes int64, dir string) *MemGauge {
	return &MemGauge{budget: budgetBytes, dir: dir}
}

// NewMemGaugeChild returns a gauge with the parent's budget and spill
// directory whose charges and spill events are also mirrored into the
// parent. The child's counters are then exactly one task's (one query's)
// share, while the parent accumulates across all of its children — the
// per-query attribution the concurrent engine reports from. A nil parent
// yields nil (no governance).
func NewMemGaugeChild(parent *MemGauge) *MemGauge {
	if parent == nil {
		return nil
	}
	return &MemGauge{budget: parent.budget, dir: parent.dir, parent: parent}
}

// Dir returns the spill directory ("" means os.TempDir()). Safe on nil.
func (g *MemGauge) Dir() string {
	if g == nil {
		return ""
	}
	if g.dir == "" {
		return os.TempDir()
	}
	return g.dir
}

// Charge adds n bytes of operator-owned state to the gauge. Safe on nil
// and for concurrent use.
func (g *MemGauge) Charge(n int64) {
	if g == nil || n == 0 {
		return
	}
	used := g.used.Add(n)
	g.parent.Charge(n)
	// Track the high-water mark; benign race on concurrent peaks (the
	// larger CAS wins eventually).
	for {
		p := g.peak.Load()
		if used <= p || g.peak.CompareAndSwap(p, used) {
			return
		}
	}
}

// Release subtracts n bytes previously charged. Safe on nil and for
// concurrent use.
func (g *MemGauge) Release(n int64) {
	if g == nil || n == 0 {
		return
	}
	g.used.Add(-n)
	g.parent.Release(n)
}

// Used returns the currently charged bytes. Safe on nil (returns 0).
func (g *MemGauge) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// Peak returns the high-water mark of charged bytes — the measured working
// set an unbudgeted run reports. Safe on nil (returns 0).
func (g *MemGauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// Over reports whether the charged bytes exceed the budget — this gauge's
// own, or any ancestor's: a per-query child trips when its query is over
// its task budget *or* when the worker's cumulative gauge is, so
// concurrent queries sharing a worker cannot multiply the worker's memory
// by their count. A nil gauge or a non-positive budget is never over.
// Safe for concurrent use.
func (g *MemGauge) Over() bool {
	if g == nil {
		return false
	}
	if g.budget > 0 && g.used.Load() > g.budget {
		return true
	}
	return g.parent.Over()
}

// noteSpill records one spill event that moved n bytes to disk.
func (g *MemGauge) noteSpill(n int64) {
	if g == nil {
		return
	}
	g.spills.Add(1)
	g.spilled.Add(n)
	g.parent.noteSpill(n)
}

// noteSpillRead records one run access covering n bytes of a spill run —
// a decoded range, the read-side counterpart of noteSpill — counted where
// the access happens (spillRun.readRange).
func (g *MemGauge) noteSpillRead(n int64) { g.noteSpillReads(1, n) }

// noteSpillReads records n run accesses covering bytes in all: the
// accumulator tallies its filter-hit probes under a shard lock and notes
// them once the lock is released — once per shard batch for a batched
// insert, once per call for Add and Has.
func (g *MemGauge) noteSpillReads(n, bytes int64) {
	if g == nil || n == 0 {
		return
	}
	g.spillReads.Add(n)
	g.spillReadBytes.Add(bytes)
	g.parent.noteSpillReads(n, bytes)
}

// Spills returns how many spill events (accumulator shard evictions) the
// gauge has seen. Safe on nil (returns 0).
func (g *MemGauge) Spills() int64 {
	if g == nil {
		return 0
	}
	return g.spills.Load()
}

// SpilledBytes returns the cumulative bytes written to spill runs. Safe on
// nil (returns 0).
func (g *MemGauge) SpilledBytes() int64 {
	if g == nil {
		return 0
	}
	return g.spilled.Load()
}

// SpillReads returns how many run accesses were made on spill runs
// (filter-hit membership probes of frozen accumulator runs, compaction
// and materialization scan chunks). Safe on nil (returns 0).
func (g *MemGauge) SpillReads() int64 {
	if g == nil {
		return 0
	}
	return g.spillReads.Load()
}

// SpillReadBytes returns the cumulative bytes those run accesses covered.
// Safe on nil (returns 0).
func (g *MemGauge) SpillReadBytes() int64 {
	if g == nil {
		return 0
	}
	return g.spillReadBytes.Load()
}
