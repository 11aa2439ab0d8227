package core

import (
	"math/rand"
	"testing"
)

// TestAccumulatorMaterializeParallel pushes the accumulator past the
// parallel-materialize threshold and checks the scattered copy against the
// sequential reference: same rows, and a membership set that answers
// correctly for both present and absent rows (the parallel path rebuilds
// it from the shards' stored hashes rather than rehashing).
func TestAccumulatorMaterializeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewAccumulator(nil, ColSrc, ColTrg)
	defer a.Close()
	seen := NewRelation(ColSrc, ColTrg)
	for a.Len() <= parallelMaterializeMin {
		for _, row := range randomRows(rng, 4096, 2, 1<<20) {
			a.Add(row)
			seen.Add(row)
		}
	}
	got := a.Materialize()
	if got.Len() <= parallelMaterializeMin {
		t.Fatalf("materialized %d rows, need > %d to exercise the parallel path", got.Len(), parallelMaterializeMin)
	}
	if !SameRows(got, seen) {
		t.Fatal("parallel materialize differs from reference set")
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
