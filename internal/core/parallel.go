package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// CtxErr returns ctx.Err() treating a nil context as never cancelled — the
// cancellation probe of the data plane's loops, which all accept a nil
// context to keep sequential/legacy callers untouched.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// This file is the one worker pool inside an evaluator: it drains many
// iterator pipelines at once into the shared fixpoint Accumulator (see
// accumulator.go) — and, on a Pgld step, into the per-owner shuffle
// filters beside it. The semi-naive fixpoint uses it to split an iteration's
// delta into batch-granular chunks and probe the (read-only, reusable)
// JoinIndexes concurrently — the driver-side loop and the per-worker local
// loops of Ps_plw/Ppg_plw overlap their probe streams across cores instead
// of walking the delta single-threaded. The drained rows land in the
// accumulator with membership and insertion fused, so there is no
// sequential merge step after the pool finishes. Index builds and the
// fixpoint's exit Materialize stay serial: a pool there measured within
// spread on every bench workload (docs/ablation.md).

// DefaultParallelism is the worker count used when an Evaluator's Parallel
// field is zero: the scheduler's CPU budget.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// ParallelPlan is the worker count of a fixpoint step's delta drain over
// rows of the given arity: the delta is probed in batch-granular chunks
// (BatchRowsFor), so the pool engages only when it spans at least two
// chunks and more than one worker is available, and the worker count is
// clamped to the chunk count. maxWorkers 0 means DefaultParallelism; a
// result of 1 means drain sequentially.
func ParallelPlan(rows, arity, maxWorkers int) int {
	workers := maxWorkers
	if workers == 0 {
		workers = DefaultParallelism()
	}
	chunk := BatchRowsFor(arity)
	if workers <= 1 || rows < 2*chunk {
		return 1
	}
	if chunks := (rows + chunk - 1) / chunk; workers > chunks {
		workers = chunks
	}
	return workers
}

// runWorkers runs fn(worker, task) for every task index in [0, tasks) on
// a bounded pool, propagating the first panic to the caller. The worker
// index lets fn keep per-goroutine scratch state. With one worker it
// degrades to a plain loop with no goroutines.
func runWorkers(tasks, workers int, fn func(worker, task int)) {
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for i := 0; i < tasks; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.Store(r)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= tasks {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}

// ParallelDrainCtx drains every iterator with a bounded worker pool into
// dst, each row into the accumulator of its owner, and returns the number
// of rows that were new to dst[self]. With one destination — a local
// fixpoint step — every row goes to dst[0] through the batched shard
// insert and no owner is computed. With several — a Pgld step — row r goes
// to dst[Owner(HashValues(r), len(dst))]: the hash that picks the owner
// also picks the shard there, so a row is hashed once on its way to X or
// to a peer's shuffle filter. Iterators must be independent (each owns its
// pipeline state); the indexes and relations they probe are only read,
// while the accumulators absorb rows from all workers concurrently. With
// one worker (or one iterator) it degrades to a plain sequential drain
// with no goroutines.
//
// Every worker probes ctx between batches, so a cancelled query stops
// draining within one batch and the call returns ctx.Err() (with however
// many rows made it into the accumulators — the caller is expected to
// unwind and discard). A nil ctx never cancels.
func ParallelDrainCtx(ctx context.Context, its []Iterator, workers int, dst []*Accumulator, self int) (int, error) {
	var cancelled atomic.Bool
	done := ctxDoneChan(ctx)
	if workers > len(its) {
		workers = len(its)
	}
	if workers <= 1 {
		added := 0
		var ad accAdder
		for _, it := range its {
			added += drainRouted(it, dst, self, &ad, done, &cancelled)
			if cancelled.Load() {
				return added, ctx.Err()
			}
		}
		return added, nil
	}
	var added atomic.Int64
	adders := make([]accAdder, workers) // per-goroutine scratch, reused across pipelines
	runWorkers(len(its), workers, func(w, i int) {
		if cancelled.Load() {
			return
		}
		added.Add(int64(drainRouted(its[i], dst, self, &adders[w], done, &cancelled)))
	})
	if cancelled.Load() {
		return int(added.Load()), ctx.Err()
	}
	return int(added.Load()), nil
}

// ctxDoneChan returns ctx's done channel, nil for a nil context (a nil
// channel never fires in a select, so the probe below stays branch-cheap).
func ctxDoneChan(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// drainRouted feeds one iterator's batches into the destination
// accumulators through the batched adder, so a shard's lock is taken once
// per batch instead of once per row, and returns the rows new to
// dst[self]. Between batches it probes the done channel and flags
// cancellation for its pool siblings.
func drainRouted(it Iterator, dst []*Accumulator, self int, ad *accAdder, done <-chan struct{}, cancelled *atomic.Bool) int {
	added := 0
	for b := it.Next(); b != nil; b = it.Next() {
		select {
		case <-done:
			cancelled.Store(true)
			return added
		default:
		}
		if cancelled.Load() {
			return added
		}
		added += ad.routeBatch(dst, self, b)
	}
	return added
}
