package core

import (
	"math/rand"
	"testing"
)

// TestAccumulatorMaterializeParallel materializes a large accumulator
// (more than 32 768 rows, spread over every shard and several segments
// per shard) and checks the block copy against the
// reference set: same rows, and a deferred membership set that answers
// correctly for both present and absent rows.
func TestAccumulatorMaterializeParallel(t *testing.T) {
	const minRows = 1 << 15
	rng := rand.New(rand.NewSource(11))
	a := NewAccumulator(nil, ColSrc, ColTrg)
	defer a.Close()
	seen := NewRelation(ColSrc, ColTrg)
	for a.Len() <= minRows {
		for _, row := range randomRows(rng, 4096, 2, 1<<20) {
			a.Add(row)
			seen.Add(row)
		}
	}
	got := a.Materialize()
	if got.Len() <= minRows {
		t.Fatalf("materialized %d rows, need > %d", got.Len(), minRows)
	}
	if !SameRows(got, seen) {
		t.Fatal("materialize differs from reference set")
	}
	for i := 0; i < 1000; i++ {
		row := seen.RowAt(rng.Intn(seen.Len()))
		if !got.Has(row) {
			t.Fatalf("materialized set misses present row %v", row)
		}
	}
	absent := []Value{1 << 30, 1 << 30}
	if got.Has(absent) {
		t.Fatalf("materialized set claims absent row %v", absent)
	}
}
