package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// This file property-tests the flat row-major Relation storage against a
// row-slice reference: Add/scan round-trips must preserve set
// semantics and insertion order, scans must be zero-copy views of the
// backing array, and the parallel drain must agree with the sequential
// fixpoint step.

// refSet is the PR 1 reference model: rows as independent slices with a
// map-of-keys set and insertion order.
type refSet struct {
	order [][]Value
	seen  map[string]bool
}

func newRefSet() *refSet { return &refSet{seen: map[string]bool{}} }

func (s *refSet) add(row []Value) bool {
	k := RowKey(row)
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	cp := make([]Value, len(row))
	copy(cp, row)
	s.order = append(s.order, cp)
	return true
}

func randomRows(rng *rand.Rand, n, arity, domain int) [][]Value {
	out := make([][]Value, n)
	for i := range out {
		row := make([]Value, arity)
		for j := range row {
			row[j] = Value(rng.Intn(domain))
		}
		out[i] = row
	}
	return out
}

// TestFlatStorageMatchesRowSliceReference: for random insertion sequences,
// the flat relation reports the same accept/reject per row, the same
// contents in the same insertion order (via RowAt, Rows and Data), and the
// same membership answers as the row-slice reference model.
func TestFlatStorageMatchesRowSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cols := [][]string{{"a"}, {ColSrc, ColTrg}, {"a", "b", "c"}}
	for trial := 0; trial < 60; trial++ {
		schema := cols[trial%len(cols)]
		arity := len(schema)
		rel := NewRelation(schema...)
		ref := newRefSet()
		rows := randomRows(rng, 5+rng.Intn(200), arity, 4)
		for _, row := range rows {
			got := rel.Add(row)
			if want := ref.add(row); got != want {
				t.Fatalf("trial %d: insert %v returned %v, reference %v", trial, row, got, want)
			}
		}
		if rel.Len() != len(ref.order) {
			t.Fatalf("trial %d: Len=%d, reference %d", trial, rel.Len(), len(ref.order))
		}
		for i, want := range ref.order {
			if !reflect.DeepEqual(rel.RowAt(i), want) {
				t.Fatalf("trial %d: RowAt(%d)=%v, reference %v", trial, i, rel.RowAt(i), want)
			}
		}
		shim := rel.Rows()
		data := rel.Data()
		for i, want := range ref.order {
			if !reflect.DeepEqual(shim[i], want) {
				t.Fatalf("trial %d: Rows()[%d]=%v, reference %v", trial, i, shim[i], want)
			}
			for j, v := range want {
				if data[i*arity+j] != v {
					t.Fatalf("trial %d: Data()[%d,%d]=%d, reference %d", trial, i, j, data[i*arity+j], v)
				}
			}
		}
		for _, row := range rows {
			if !rel.Has(row) {
				t.Fatalf("trial %d: Has(%v)=false after insert", trial, row)
			}
		}
	}
}

// TestScanPreservesInsertionOrder: draining ScanRelation reproduces the
// relation's rows in insertion order, across batch boundaries.
func TestScanPreservesInsertionOrder(t *testing.T) {
	rel := NewRelation(ColSrc, ColTrg)
	n := BatchRowsFor(2)*2 + 37 // forces several batches
	for i := 0; i < n; i++ {
		rel.Add([]Value{Value(i), Value(i + 1)})
	}
	it := ScanRelation(rel)
	pos := 0
	for b := it.Next(); b != nil; b = it.Next() {
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			if row[0] != Value(pos) || row[1] != Value(pos+1) {
				t.Fatalf("row %d out of order: %v", pos, row)
			}
			pos++
		}
	}
	if pos != n {
		t.Fatalf("scan yielded %d rows, want %d", pos, n)
	}
}

// TestScanBatchesAliasBackingArray: scan batches are views of the
// relation's flat backing array — same underlying memory, no flatten copy.
func TestScanBatchesAliasBackingArray(t *testing.T) {
	rel := NewRelation(ColSrc, ColTrg)
	n := BatchRowsFor(2) + 100
	for i := 0; i < n; i++ {
		rel.Add([]Value{Value(i), Value(i)})
	}
	it := ScanRelation(rel)
	pos := 0
	for b := it.Next(); b != nil; b = it.Next() {
		want := rel.Data()[pos*2 : pos*2+1]
		if &b.Values()[0] != &want[0] {
			t.Fatalf("batch at row %d does not alias the backing array", pos)
		}
		pos += b.Len()
	}
}

// TestSliceViews: Slice exposes the right window, supports scans, joins
// and membership (lazy set), and rejects insertion.
func TestSliceViews(t *testing.T) {
	rel := NewRelation(ColSrc, ColTrg)
	for i := 0; i < 100; i++ {
		rel.Add([]Value{Value(i), Value(i + 1)})
	}
	v := rel.Slice(10, 30)
	if v.Len() != 20 || v.Arity() != 2 {
		t.Fatalf("view Len=%d Arity=%d", v.Len(), v.Arity())
	}
	if got := v.RowAt(0); got[0] != 10 {
		t.Fatalf("view RowAt(0)=%v", got)
	}
	if !v.Has([]Value{15, 16}) || v.Has([]Value{5, 6}) {
		t.Fatal("view membership wrong")
	}
	got := Materialize(ScanRelation(v))
	if got.Len() != 20 {
		t.Fatalf("view scan yielded %d rows", got.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic inserting into a view")
		}
	}()
	v.Add([]Value{1, 2})
}

// TestDeferredSetBuiltOnceUnderSharing: a relation filled by
// AppendDistinct stores rows only; the first membership queries, arriving
// from many readers at once, build the set exactly once (run under -race),
// after which Remove, Add and a further AppendDistinct keep the row store
// and the set consistent.
func TestDeferredSetBuiltOnceUnderSharing(t *testing.T) {
	src := chainRelation(5000)
	rel := NewRelation(ColSrc, ColTrg)
	rel.AppendDistinct(src.AsBatch())
	if !rel.deferred.Load() || len(rel.set.slots) != 0 {
		t.Fatal("AppendDistinct built a dedup set")
	}
	if c := rel.Clone(); !c.deferred.Load() || !SameRows(c, src) {
		t.Fatal("clone of a deferred relation lost rows or built a set")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < src.Len(); i += 8 {
				if !rel.Has(src.RowAt(i)) {
					t.Errorf("reader %d: row %d missing", g, i)
					return
				}
			}
			if rel.Has([]Value{-1, -1}) {
				t.Errorf("reader %d: absent row found", g)
			}
		}(g)
	}
	wg.Wait()
	if rel.deferred.Load() || rel.set.n != src.Len() {
		t.Fatalf("set holds %d of %d rows after the first probes", rel.set.n, src.Len())
	}
	if !rel.Remove(src.RowAt(7)) || rel.Has(src.RowAt(7)) || rel.Add(src.RowAt(8)) || !rel.Add(src.RowAt(7)) {
		t.Fatal("Remove/Add inconsistent after the deferred build")
	}
	// A built set is extended by later appends, not dropped: appends
	// interleaved with membership queries must not rebuild it per query.
	rel.AppendDistinct(NewBatchValues(2, 2, []Value{-5, -6, -7, -8}))
	if rel.deferred.Load() || rel.set.n != rel.Len() {
		t.Fatalf("AppendDistinct after a built set left %d of %d rows in it", rel.set.n, rel.Len())
	}
	if !rel.Has([]Value{-5, -6}) || !rel.Has([]Value{-7, -8}) || !rel.Has(src.RowAt(9)) || rel.Len() != src.Len()+2 {
		t.Fatal("AppendDistinct after a built set lost rows")
	}
}

// TestAddBatchRoundTrip: encode (AsBatch/Sub) → decode (AddBatch)
// preserves set semantics and insertion order, including via fresh-copied
// buffers (the transport's path).
func TestAddBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		rel := NewRelation(ColSrc, ColTrg)
		for _, row := range randomRows(rng, rng.Intn(300), 2, 8) {
			rel.Add(row)
		}
		// Frame the relation in windows, copy each window's buffer (as the
		// transport does), decode into a fresh relation.
		dec := NewRelation(ColSrc, ColTrg)
		whole := rel.AsBatch()
		step := 64
		for lo := 0; ; {
			hi := lo + step
			if hi > rel.Len() {
				hi = rel.Len()
			}
			w := whole.Sub(lo, hi)
			vals := make([]Value, len(w.Values()))
			copy(vals, w.Values())
			dec.AddBatch(NewBatchValues(w.Arity(), w.Len(), vals))
			if hi == rel.Len() {
				break
			}
			lo = hi
		}
		if !dec.Equal(rel) {
			t.Fatalf("trial %d: decoded relation differs", trial)
		}
		for i := 0; i < rel.Len(); i++ {
			if !reflect.DeepEqual(dec.RowAt(i), rel.RowAt(i)) {
				t.Fatalf("trial %d: decode changed insertion order at %d", trial, i)
			}
		}
	}
}

// TestAccumulatorAgreesWithRelation: concurrent Accumulator insertion
// accepts exactly the distinct rows a Relation would, and Materialize
// exports them losslessly.
func TestAccumulatorAgreesWithRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randomRows(rng, 4000, 2, 40)
	want := NewRelation(ColSrc, ColTrg)
	for _, row := range rows {
		want.Add(row)
	}
	a := NewAccumulator(nil, ColSrc, ColTrg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rows); i += 4 {
				a.Add(rows[i])
			}
		}(w)
	}
	wg.Wait()
	if a.Len() != want.Len() {
		t.Fatalf("accumulator Len=%d, want %d", a.Len(), want.Len())
	}
	got := a.Materialize()
	if !SameRows(got, want) {
		t.Fatal("accumulator contents differ from reference relation")
	}
}

// TestAccumulatorAbsorb: Absorb seeds the set, AbsorbBatch counts exactly
// the rows that were new, and membership answers stay consistent.
func TestAccumulatorAbsorb(t *testing.T) {
	a := NewAccumulator(nil, ColSrc, ColTrg)
	seed := NewRelation(ColSrc, ColTrg)
	seed.Add([]Value{1, 2})
	seed.Add([]Value{3, 4})
	if n := a.Absorb(seed); n != 2 {
		t.Fatalf("Absorb returned %d, want 2", n)
	}
	if a.Add([]Value{1, 2}) {
		t.Fatal("absorbed row accepted again")
	}
	if !a.Has([]Value{3, 4}) || a.Has([]Value{9, 9}) {
		t.Fatal("membership wrong after Absorb")
	}
	next := NewRelation(ColSrc, ColTrg)
	next.Add([]Value{3, 4}) // already in
	next.Add([]Value{5, 6}) // new
	if n := a.Absorber().AbsorbBatch(next.AsBatch()); n != 1 || !a.Has([]Value{5, 6}) || a.Len() != 3 {
		t.Fatalf("AbsorbBatch added %d rows (Len %d), want exactly (5,6)", n, a.Len())
	}
}

// TestParallelDrainMatchesSequential: draining chunked scans of one
// relation through the worker pool yields exactly the relation (dedup
// across chunks), no matter the worker count; routed over three owners,
// as a Pgld step drains, every row lands in exactly its owner's
// accumulator and the count is of rows new to the drain's own. Run with
// -race this is also the concurrency test for ParallelDrainCtx.
func TestParallelDrainMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := NewRelation(ColSrc, ColTrg)
	for _, row := range randomRows(rng, 20000, 2, 120) {
		src.Add(row)
	}
	for _, owners := range []int{1, 3} {
		want := SplitRelation(src, owners, src.Cols())
		self := owners - 1
		for _, workers := range []int{1, 2, 4, 8} {
			var pipes []Iterator
			const chunk = 512
			for lo := 0; lo < src.Len(); lo += chunk {
				hi := lo + chunk
				if hi > src.Len() {
					hi = src.Len()
				}
				pipes = append(pipes, ScanRelation(src.Slice(lo, hi)))
			}
			// Duplicate the first chunk: the sinks must deduplicate
			// across pipelines.
			pipes = append(pipes, ScanRelation(src.Slice(0, chunk)))
			dst := make([]*Accumulator, owners)
			for p := range dst {
				dst[p] = NewAccumulator(nil, ColSrc, ColTrg)
			}
			added, err := ParallelDrainCtx(nil, pipes, workers, dst, self)
			if err != nil {
				t.Fatal(err)
			}
			if added != want[self].Len() {
				t.Fatalf("owners=%d workers=%d: drained %d distinct rows into its own sink, want %d",
					owners, workers, added, want[self].Len())
			}
			for p, a := range dst {
				if got := a.Materialize(); !SameRows(got, want[p]) {
					t.Fatalf("owners=%d workers=%d: owner %d holds %d rows, want its %d", owners, workers, p, got.Len(), want[p].Len())
				}
				a.Close()
			}
		}
	}
}

// TestParallelFixpointMatchesSequential: the parallel semi-naive step
// produces the same closure as the sequential one on a graph whose deltas
// are large enough to engage chunking. Under -race this doubles as the
// race test over the whole parallel fixpoint path.
func TestParallelFixpointMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	edges := NewRelation(ColSrc, ColTrg)
	const nodes = 380
	for i := 0; i < 3*nodes; i++ {
		edges.Add([]Value{Value(rng.Intn(nodes)), Value(rng.Intn(nodes))})
	}
	term := ClosureLR("X", &Var{Name: "E"})
	env := NewEnv()
	env.Bind("E", edges)

	seq := NewEvaluator(env)
	seq.Parallel = 1
	want, err := seq.Eval(term)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		par := NewEvaluator(env)
		par.Parallel = workers
		got, err := par.Eval(term)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("Parallel=%d: closure differs (%d vs %d rows)", workers, got.Len(), want.Len())
		}
		if workers > 1 && par.Stats.ParallelSteps == 0 {
			t.Fatalf("Parallel=%d: no iteration engaged the worker pool (deltas too small?)", workers)
		}
	}
}
