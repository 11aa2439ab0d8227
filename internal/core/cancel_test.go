package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// cancelOnErr is a context that cancels itself on the nth call of its
// Err. In a local fixpoint only the loop's poll between iterations calls
// Err — the drain watches Done — so the nth call lands after iteration
// n-1, at a point that does not depend on timing.
type cancelOnErr struct {
	context.Context
	n      atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelOnErr) Err() error {
	if c.n.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestRunFixpointCancelled: both semi-naive loops poll ev.Ctx before
// every iteration, so a context cancelled before Eval aborts the loop at
// its first poll, and one cancelled after iteration k stops it there,
// where the chain's closure would otherwise run one iteration per edge.
// Either way Eval returns context.Canceled, for the streaming and the
// materializing evaluator.
func TestRunFixpointCancelled(t *testing.T) {
	env := NewEnv()
	env.Bind("E", chainRelation(64))
	term := ClosureLR("X", &Var{Name: "E"})
	for _, materializing := range []bool{false, true} {
		for _, k := range []int{0, 3} {
			parent, cancel := context.WithCancel(context.Background())
			ctx := &cancelOnErr{Context: parent, cancel: cancel}
			ctx.n.Store(int64(k) + 1)
			if k == 0 {
				cancel()
			}
			ev := NewEvaluator(env)
			ev.Ctx = ctx
			ev.Materializing = materializing
			_, err := ev.Eval(term)
			iters := ev.Stats.FixpointIterations
			ev.Close()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("materializing=%v, k=%d: want context.Canceled, got %v", materializing, k, err)
			}
			if iters != k {
				t.Fatalf("materializing=%v, k=%d: stopped after %d iterations", materializing, k, iters)
			}
		}
	}
}

// TestParallelDrainCtxCancelled: a cancelled context stops the drain
// between batches and surfaces ctx.Err(), both on the sequential path and
// on the worker pool; a nil context never cancels.
func TestParallelDrainCtxCancelled(t *testing.T) {
	rel := chainRelation(BatchRowsFor(2) * 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		sink := NewAccumulator(nil, ColSrc, ColTrg)
		its := []Iterator{ScanRelation(rel.Slice(0, rel.Len()/2)), ScanRelation(rel.Slice(rel.Len()/2, rel.Len()))}
		_, err := ParallelDrainCtx(ctx, its, workers, []*Accumulator{sink}, 0)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if sink.Len() >= rel.Len() {
			t.Fatalf("workers=%d: cancelled drain consumed the whole input (%d rows)", workers, sink.Len())
		}
		sink.Close()
	}

	sink2 := NewAccumulator(nil, ColSrc, ColTrg)
	defer sink2.Close()
	added, err := ParallelDrainCtx(nil, []Iterator{ScanRelation(rel)}, 2, []*Accumulator{sink2}, 0)
	if err != nil || added != rel.Len() {
		t.Fatalf("nil-ctx drain: added=%d err=%v, want %d rows", added, err, rel.Len())
	}
}
