package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// This file stress-tests the cross-iteration fixpoint accumulator and the
// parallel join-index build — the two concurrency surfaces added when the
// per-iteration merge barrier and the serial build were removed. All of
// these are meaningful under -race (CI runs the suite with it): they
// exercise probe-while-add, delta scan vs concurrent insert, and
// concurrent probes of a parallel-built index.

// requireSegmentCrossing fails the test unless every shard's window
// between two marks of an accumulator that never evicted spans at least
// two store segments.
func requireSegmentCrossing(t *testing.T, from, to AccMark) {
	t.Helper()
	for i := range from {
		first, _ := segOf(from[i])
		last, _ := segOf(to[i] - 1)
		if to[i] == from[i] || first == last {
			t.Fatalf("shard %d: window [%d,%d) lies inside one segment", i, from[i], to[i])
		}
	}
}

// TestAccumulatorDeltaEpochs: absorbing rows in epochs, the views between
// consecutive marks contain exactly the rows that were new in that epoch.
// The epochs double in size, so every shard's window crosses a store
// segment boundary and the views of one window span segments.
func TestAccumulatorDeltaEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewAccumulator(nil, ColSrc, ColTrg)
	seen := NewRelation(ColSrc, ColTrg)
	prev := AccMark{}
	var last [][]Value
	for epoch := 0; epoch < 4; epoch++ {
		// Fresh rows plus a tail of the previous epoch's, which must not
		// count as new again.
		batch := append(randomRows(rng, 20000<<epoch, 2, 3000), last[:len(last)/8]...)
		last = batch
		wantNew := NewRelation(ColSrc, ColTrg)
		for _, row := range batch {
			if !seen.Has(row) {
				wantNew.Add(row)
			}
			seen.Add(row)
			a.Add(row)
		}
		mark := a.Mark()
		requireSegmentCrossing(t, prev, mark)
		if n := DeltaRows(prev, mark); n != wantNew.Len() {
			t.Fatalf("epoch %d: DeltaRows=%d, want %d", epoch, n, wantNew.Len())
		}
		gotViews := NewRelation(ColSrc, ColTrg)
		for _, v := range a.DeltaViews(prev, mark) {
			Drain(ScanRelation(v), gotViews)
		}
		if !SameRows(gotViews, wantNew) {
			t.Fatalf("epoch %d: DeltaViews rows differ from the epoch's new rows", epoch)
		}
		prev = mark
	}
	if got := a.Materialize(); !SameRows(got, seen) {
		t.Fatal("materialized accumulator differs from reference set")
	}
}

// TestAccumulatorProbeWhileAdd runs concurrent producers, membership
// probes and delta scans against one accumulator — the exact overlap the
// cross-iteration fixpoint creates when workers of iteration i+1 insert
// while others still stream iteration i's shard windows. Under -race this
// is the primary data-race test for the accumulator. The base window and
// the concurrent inserts each cross store segment boundaries in every
// shard, so producers open segments while scanners read earlier ones.
func TestAccumulatorProbeWhileAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := randomRows(rng, 60000, 2, 2000)
	base := rows[:24000]
	extra := rows[24000:]

	a := NewAccumulator(nil, ColSrc, ColTrg)
	for _, row := range base {
		a.Add(row)
	}
	baseMark := a.Mark()
	requireSegmentCrossing(t, AccMark{}, baseMark)

	var wg sync.WaitGroup
	var missing atomic.Int64
	// Producers: insert the extra rows concurrently.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(extra); i += 4 {
				a.Add(extra[i])
			}
		}(w)
	}
	// Probers: base rows must stay present throughout.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(base); i += 2 {
				if !a.Has(base[i]) {
					missing.Add(1)
				}
			}
		}(w)
	}
	// Scanners: the pre-insert delta window must stay fully readable and
	// stable while producers append past it.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				n := 0
				for _, v := range a.DeltaViews(AccMark{}, baseMark) {
					it := ScanRelation(v)
					for b := it.Next(); b != nil; b = it.Next() {
						n += b.Len()
					}
				}
				if n != DeltaRows(AccMark{}, baseMark) {
					missing.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if missing.Load() != 0 {
		t.Fatalf("%d probe/scan inconsistencies during concurrent insertion", missing.Load())
	}
	requireSegmentCrossing(t, baseMark, a.Mark())

	want := NewRelation(ColSrc, ColTrg)
	for _, row := range rows {
		want.Add(row)
	}
	if got := a.Materialize(); !SameRows(got, want) {
		t.Fatal("accumulator contents differ after concurrent insertion")
	}
}

// TestAccumulatorAbsorbBatchConcurrent: concurrent batched absorbs (the
// worker-pool drain path) agree with a sequential reference, and the
// callers' new-row counts add up to the distinct rows: no row is claimed
// by two callers.
func TestAccumulatorAbsorbBatchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := randomRows(rng, 16000, 2, 150)
	src := NewRelation(ColSrc, ColTrg)
	for _, row := range rows {
		src.Add(row)
	}
	const workers = 6
	a := NewAccumulator(nil, ColSrc, ColTrg)
	claimed := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ab := a.Absorber()
			// Overlapping windows force cross-worker duplicate claims.
			step := 1000
			for lo := 0; lo < src.Len(); lo += step {
				hi := lo + step + 500
				if hi > src.Len() {
					hi = src.Len()
				}
				claimed[w] += ab.AbsorbBatch(src.BatchRange(lo, hi))
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range claimed {
		total += n
	}
	if total != src.Len() {
		t.Fatalf("%d rows claimed as new, %d distinct", total, src.Len())
	}
	if got := a.Materialize(); !SameRows(got, src) {
		t.Fatal("accumulator contents differ from the source set")
	}
}

// TestAccumulatorGrowthAllocBound: growing an unbudgeted accumulator
// allocates each stored byte about once. 200 000 distinct binary rows
// absorbed in batches may allocate at most 4× their budget-model price
// (AccRowBytes per row) — room for the half-empty last segment of every
// shard and the dedup tables' doublings, but not for stores re-copied at
// every append growth.
func TestAccumulatorGrowthAllocBound(t *testing.T) {
	const n, batch = 200_000, 1024
	vals := make([]Value, 0, 2*n)
	for i := 0; i < n; i++ {
		vals = append(vals, Value(i), Value(i*7+1))
	}
	src := NewRelation(ColSrc, ColTrg)
	src.AppendDistinct(NewBatchValues(2, n, vals))
	a := NewAccumulator(nil, ColSrc, ColTrg)
	ab := a.Absorber()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	added := 0
	for lo := 0; lo < n; lo += batch {
		added += ab.AbsorbBatch(src.BatchRange(lo, min(lo+batch, n)))
	}
	runtime.ReadMemStats(&after)
	if added != n {
		t.Fatalf("%d rows added, want %d", added, n)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if bound := 4 * uint64(AccRowBytes(2)) * n; alloc > bound {
		t.Fatalf("absorbing %d rows allocated %d bytes (%.1f× their %d-byte price), bound 4×",
			n, alloc, float64(alloc)/float64(AccRowBytes(2)*n), AccRowBytes(2)*n)
	}
	t.Logf("absorbing %d rows allocated %.1f× their price", n, float64(alloc)/float64(AccRowBytes(2)*n))
}

// TestParallelIndexConcurrentProbes: one index serves concurrent probes
// from many goroutines (read-only sharing, the fixpoint drain's access
// pattern). Under -race this guards the build/probe hand-off.
func TestParallelIndexConcurrentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rel := NewRelation(ColSrc, ColTrg)
	for _, row := range randomRows(rng, 3*BatchRowsFor(2), 2, 300) {
		rel.Add(row)
	}
	ix, err := newJoinIndex(rel, []string{ColSrc})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch [][]Value
			for i := w; i < rel.Len(); i += 6 {
				row := rel.RowAt(i)
				scratch = ix.Matches(scratch[:0], row[:1])
				found := false
				for _, m := range scratch {
					if rowsEqual(m, row) {
						found = true
						break
					}
				}
				if !found {
					bad.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d indexed rows not found by their own key under concurrent probing", bad.Load())
	}
}
