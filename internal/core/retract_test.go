package core

import (
	"math/rand"
	"testing"
)

// Tests for the deletion primitive under the live graph's edge removal:
// Relation.Remove (swap-remove + backward-shift set deletion).

func TestRelationRemove(t *testing.T) {
	r := NewRelation(ColSrc, ColTrg)
	for i := 0; i < 10; i++ {
		r.Add([]Value{Value(i), Value(i + 100)})
	}
	if r.Remove([]Value{Value(3), Value(999)}) {
		t.Fatal("removed a row that was never added")
	}
	if !r.Remove([]Value{Value(3), Value(103)}) {
		t.Fatal("failed to remove a present row")
	}
	if r.Len() != 9 || r.Has([]Value{Value(3), Value(103)}) {
		t.Fatalf("after remove: len=%d has=%v", r.Len(), r.Has([]Value{Value(3), Value(103)}))
	}
	if r.Remove([]Value{Value(3), Value(103)}) {
		t.Fatal("double remove succeeded")
	}
	// The swapped-in last row must stay reachable through the set.
	for i := 0; i < 10; i++ {
		if i == 3 {
			continue
		}
		if !r.Has([]Value{Value(i), Value(i + 100)}) {
			t.Fatalf("row %d lost after an unrelated remove", i)
		}
	}
	// Remove then re-add round-trips.
	if !r.Add([]Value{Value(3), Value(103)}) {
		t.Fatal("re-add of a removed row rejected as duplicate")
	}
	if r.Len() != 10 {
		t.Fatalf("len=%d after re-add, want 10", r.Len())
	}
}

// TestRelationRemoveChurn is the property test for the open-addressing
// backward-shift deletion: random interleaved adds and removes must keep
// the relation row-for-row equal to a map reference — a misplaced shift
// shows up as a phantom, a lost row, or a duplicate accepted.
func TestRelationRemoveChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := NewRelation(ColSrc, ColTrg)
	ref := map[[2]Value]bool{}
	for step := 0; step < 20000; step++ {
		row := []Value{Value(rng.Intn(80)), Value(rng.Intn(80))}
		k := [2]Value{row[0], row[1]}
		if rng.Intn(2) == 0 {
			if got, want := r.Add(row), !ref[k]; got != want {
				t.Fatalf("step %d: Add=%v, want %v", step, got, want)
			}
			ref[k] = true
		} else {
			if got, want := r.Remove(row), ref[k]; got != want {
				t.Fatalf("step %d: Remove=%v, want %v", step, got, want)
			}
			delete(ref, k)
		}
		if r.Len() != len(ref) {
			t.Fatalf("step %d: len=%d, want %d", step, r.Len(), len(ref))
		}
	}
	for i := 0; i < r.Len(); i++ {
		row := r.RowAt(i)
		if !ref[[2]Value{row[0], row[1]}] {
			t.Fatalf("phantom row %v", row)
		}
	}
	for k := range ref {
		if !r.Has([]Value{k[0], k[1]}) {
			t.Fatalf("lost row %v", k)
		}
	}
}
