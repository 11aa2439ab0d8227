package core

import (
	"context"
	"errors"
	"testing"
)

// TestRunFixpointCancelled: a cancelled context aborts the semi-naive loop
// at its per-iteration check with ctx.Err(), for both the streaming and
// the materializing evaluator.
func TestRunFixpointCancelled(t *testing.T) {
	env := NewEnv()
	env.Bind("E", chainRelation(64))
	term := ClosureLR("X", &Var{Name: "E"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, materializing := range []bool{false, true} {
		ev := NewEvaluator(env)
		ev.Ctx = ctx
		ev.Materializing = materializing
		_, err := ev.Eval(term)
		ev.Close()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("materializing=%v: want context.Canceled, got %v", materializing, err)
		}
	}
}

// TestParallelDrainCtxCancelled: a cancelled context stops the drain
// between batches and surfaces ctx.Err(); a nil context never cancels.
func TestParallelDrainCtxCancelled(t *testing.T) {
	rel := chainRelation(BatchRowsFor(2) * 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := NewAccumulator(nil, ColSrc, ColTrg)
	_, err := ParallelDrainCtx(ctx, []Iterator{ScanRelation(rel)}, 1, []*Accumulator{sink}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if sink.Len() >= rel.Len() {
		t.Fatalf("cancelled drain consumed the whole input (%d rows)", sink.Len())
	}
	sink.Close()

	sink2 := NewAccumulator(nil, ColSrc, ColTrg)
	defer sink2.Close()
	added, err := ParallelDrainCtx(nil, []Iterator{ScanRelation(rel)}, 2, []*Accumulator{sink2}, 0)
	if err != nil || added != rel.Len() {
		t.Fatalf("nil-ctx drain: added=%d err=%v, want %d rows", added, err, rel.Len())
	}
}
