package core

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func rel(t *testing.T, cols []string, rows ...[]Value) *Relation {
	t.Helper()
	r := NewRelation(cols...)
	for _, row := range rows {
		cp := make([]Value, len(row))
		copy(cp, row)
		r.AddTuple(cols, cp)
	}
	return r
}

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation(ColSrc, ColTrg)
	if !r.Add([]Value{1, 2}) {
		t.Fatal("first insert should be new")
	}
	if r.Add([]Value{1, 2}) {
		t.Fatal("duplicate insert should be rejected")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if !r.Has([]Value{1, 2}) || r.Has([]Value{2, 1}) {
		t.Fatal("Has gives wrong answers")
	}
}

func TestRelationSchemaSorted(t *testing.T) {
	r := NewRelation("b", "a", "c")
	got := r.Cols()
	want := []string{"a", "b", "c"}
	if !ColsEqual(got, want) {
		t.Fatalf("Cols = %v, want %v", got, want)
	}
}

func TestRelationDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate column")
		}
	}()
	NewRelation("a", "a")
}

func TestAddTupleReordersColumns(t *testing.T) {
	r := NewRelation(ColSrc, ColTrg)
	r.AddTuple([]string{ColTrg, ColSrc}, []Value{2, 1})
	if !r.Has([]Value{1, 2}) {
		t.Fatalf("tuple not stored in schema order: %v", r)
	}
}

func TestUnionDiff(t *testing.T) {
	a := rel(t, []string{ColSrc, ColTrg}, []Value{1, 2}, []Value{3, 4})
	b := rel(t, []string{ColSrc, ColTrg}, []Value{3, 4}, []Value{5, 6})
	u := a.Union(b)
	if u.Len() != 3 {
		t.Fatalf("union size = %d, want 3", u.Len())
	}
	d := a.Diff(b)
	if d.Len() != 1 || !d.Has([]Value{1, 2}) {
		t.Fatalf("diff = %v, want {(1,2)}", d)
	}
}

func TestJoinNatural(t *testing.T) {
	// S(src,mid) ⋈ E(mid,trg) joins on mid.
	s := rel(t, []string{"src", "mid"}, []Value{1, 2}, []Value{1, 4})
	e := rel(t, []string{"mid", "trg"}, []Value{2, 3}, []Value{4, 5}, []Value{9, 9})
	j := s.Join(e)
	want := rel(t, []string{"mid", "src", "trg"}, []Value{2, 1, 3}, []Value{4, 1, 5})
	if !j.Equal(want) {
		t.Fatalf("join = %v, want %v", j, want)
	}
}

func TestJoinNoCommonIsCartesian(t *testing.T) {
	a := rel(t, []string{"a"}, []Value{1}, []Value{2})
	b := rel(t, []string{"b"}, []Value{10}, []Value{20})
	j := a.Join(b)
	if j.Len() != 4 {
		t.Fatalf("cartesian size = %d, want 4", j.Len())
	}
}

func TestJoinIdenticalSchemaIsIntersection(t *testing.T) {
	a := rel(t, []string{ColSrc, ColTrg}, []Value{1, 2}, []Value{3, 4})
	b := rel(t, []string{ColSrc, ColTrg}, []Value{3, 4}, []Value{5, 6})
	j := a.Join(b)
	if j.Len() != 1 || !j.Has([]Value{3, 4}) {
		t.Fatalf("join = %v, want {(3,4)}", j)
	}
}

func TestAntijoin(t *testing.T) {
	a := rel(t, []string{ColSrc, ColTrg}, []Value{1, 2}, []Value{3, 4})
	b := rel(t, []string{ColSrc}, []Value{1})
	aj := a.Antijoin(b)
	if aj.Len() != 1 || !aj.Has([]Value{3, 4}) {
		t.Fatalf("antijoin = %v, want {(3,4)}", aj)
	}
}

func TestAntijoinNoCommonColumns(t *testing.T) {
	a := rel(t, []string{"a"}, []Value{1})
	empty := NewRelation("b")
	if got := a.Antijoin(empty); got.Len() != 1 {
		t.Fatalf("a ▷ ∅ = %v, want a", got)
	}
	nonEmpty := rel(t, []string{"b"}, []Value{9})
	if got := a.Antijoin(nonEmpty); got.Len() != 0 {
		t.Fatalf("a ▷ b (no common cols, b nonempty) = %v, want ∅", got)
	}
}

func TestFilter(t *testing.T) {
	a := rel(t, []string{ColSrc, ColTrg}, []Value{1, 2}, []Value{3, 4}, []Value{1, 5})
	f := a.Filter(EqConst{Col: ColSrc, Val: 1})
	if f.Len() != 2 {
		t.Fatalf("filter size = %d, want 2", f.Len())
	}
	f2 := a.Filter(And{EqConst{Col: ColSrc, Val: 1}, EqConst{Col: ColTrg, Val: 5}})
	if f2.Len() != 1 || !f2.Has([]Value{1, 5}) {
		t.Fatalf("filter(and) = %v", f2)
	}
	f3 := a.Filter(EqCols{A: ColSrc, B: ColTrg})
	if f3.Len() != 0 {
		t.Fatalf("filter(src=trg) = %v, want empty", f3)
	}
}

func TestRename(t *testing.T) {
	a := rel(t, []string{ColSrc, ColTrg}, []Value{1, 2})
	r, err := a.Rename(ColTrg, "mid")
	if err != nil {
		t.Fatal(err)
	}
	if !ColsEqual(r.Cols(), []string{"mid", ColSrc}) {
		t.Fatalf("cols = %v", r.Cols())
	}
	// mid < src, so the row is now (mid=2, src=1).
	if !r.Has([]Value{2, 1}) {
		t.Fatalf("rename row layout wrong: %v", r)
	}
	if _, err := a.Rename("nope", "x"); err == nil {
		t.Fatal("expected error renaming missing column")
	}
	if _, err := a.Rename(ColSrc, ColTrg); err == nil {
		t.Fatal("expected error renaming onto existing column")
	}
}

func TestDropDeduplicates(t *testing.T) {
	a := rel(t, []string{ColSrc, ColTrg}, []Value{1, 2}, []Value{1, 3})
	d, err := a.Drop(ColTrg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || !d.Has([]Value{1}) {
		t.Fatalf("drop = %v, want {(1)}", d)
	}
}

func TestProject(t *testing.T) {
	a := rel(t, []string{"a", "b", "c"}, []Value{1, 2, 3})
	p, err := a.Project("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if !ColsEqual(p.Cols(), []string{"a", "c"}) || !p.Has([]Value{1, 3}) {
		t.Fatalf("project = %v", p)
	}
}

// unpackRowKey decodes a RowKey of the given arity: eight big-endian bytes
// per value.
func unpackRowKey(key string, arity int) []Value {
	row := make([]Value, arity)
	for i := range row {
		row[i] = Value(binary.BigEndian.Uint64([]byte(key[i*8 : i*8+8])))
	}
	return row
}

func TestRowKeyRoundTrip(t *testing.T) {
	f := func(a, b, c int64) bool {
		row := []Value{a, b, c}
		got := unpackRowKey(RowKey(row), 3)
		return got[0] == a && got[1] == b && got[2] == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColsOps(t *testing.T) {
	a := []string{"a", "c", "e"}
	b := []string{"b", "c", "d", "e"}
	if got := ColsUnion(a, b); !ColsEqual(got, []string{"a", "b", "c", "d", "e"}) {
		t.Fatalf("union = %v", got)
	}
	if got := ColsIntersect(a, b); !ColsEqual(got, []string{"c", "e"}) {
		t.Fatalf("intersect = %v", got)
	}
	if got := ColsMinus(a, b); !ColsEqual(got, []string{"a"}) {
		t.Fatalf("minus = %v", got)
	}
	if ColIndex(a, "c") != 1 || ColIndex(a, "zz") != -1 {
		t.Fatal("ColIndex wrong")
	}
}

// randomBinaryRelation builds a relation of n random (src,trg) pairs drawn
// from a small domain so that joins hit.
func randomBinaryRelation(rng *rand.Rand, n, domain int) *Relation {
	r := NewRelation(ColSrc, ColTrg)
	for i := 0; i < n; i++ {
		r.Add([]Value{Value(rng.Intn(domain)), Value(rng.Intn(domain))})
	}
	return r
}

func TestPropertyJoinCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := randomBinaryRelation(rng, 30, 8)
		b, _ := randomBinaryRelation(rng, 30, 8).Rename(ColSrc, "mid")
		ab := a.Join(b)
		ba := b.Join(a)
		if !ab.Equal(ba) {
			t.Fatalf("join not commutative:\n a=%v\n b=%v\n ab=%v\n ba=%v", a, b, ab, ba)
		}
	}
}

func TestPropertyUnionIdempotentCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		a := randomBinaryRelation(rng, 20, 6)
		b := randomBinaryRelation(rng, 20, 6)
		if !a.Union(a).Equal(a) {
			t.Fatal("union not idempotent")
		}
		if !a.Union(b).Equal(b.Union(a)) {
			t.Fatal("union not commutative")
		}
	}
}

func TestPropertyAntijoinComplementsSemijoin(t *testing.T) {
	// (a ⋈ b's keys) ∪ (a ▷ b) = a, and the two parts are disjoint.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		a := randomBinaryRelation(rng, 25, 6)
		b, _ := randomBinaryRelation(rng, 25, 6).Drop(ColTrg)
		anti := a.Antijoin(b)
		semi := a.Diff(anti)
		// Every row of semi must join with b, every row of anti must not.
		for _, row := range semi.Rows() {
			if !b.Has([]Value{row[ColIndex(a.Cols(), ColSrc)]}) {
				t.Fatalf("semijoin row %v has no match in %v", row, b)
			}
		}
		for _, row := range anti.Rows() {
			if b.Has([]Value{row[ColIndex(a.Cols(), ColSrc)]}) {
				t.Fatalf("antijoin row %v has a match in %v", row, b)
			}
		}
		if got := semi.Union(anti); !got.Equal(a) {
			t.Fatal("semijoin ∪ antijoin ≠ a")
		}
	}
}

func TestSplitRelationRoundRobin(t *testing.T) {
	r := rel(t, []string{ColSrc, ColTrg}, []Value{1, 2}, []Value{3, 4}, []Value{5, 6}, []Value{7, 8})
	parts := SplitRelation(r, 3, nil)
	total := 0
	merged := NewRelation(ColSrc, ColTrg)
	for _, p := range parts {
		total += p.Len()
		merged.UnionInPlace(p)
	}
	if total != 4 || !merged.Equal(r) {
		t.Fatalf("round-robin split lost or duplicated rows: parts=%v", parts)
	}
}

func TestSplitRelationByColumnIsDisjointOnColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := randomBinaryRelation(rng, 200, 20)
	parts := SplitRelation(r, 4, []string{ColSrc})
	seen := map[Value]int{}
	merged := NewRelation(ColSrc, ColTrg)
	for i, p := range parts {
		for _, row := range p.Rows() {
			src := row[ColIndex(p.Cols(), ColSrc)]
			if prev, ok := seen[src]; ok && prev != i {
				t.Fatalf("src %d appears in partitions %d and %d", src, prev, i)
			}
			seen[src] = i
		}
		merged.UnionInPlace(p)
	}
	if !merged.Equal(r) {
		t.Fatal("hash split lost rows")
	}
}

func sortedPairs(r *Relation) [][2]Value {
	si, ti := ColIndex(r.Cols(), ColSrc), ColIndex(r.Cols(), ColTrg)
	out := make([][2]Value, 0, r.Len())
	for _, row := range r.Rows() {
		out = append(out, [2]Value{row[si], row[ti]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func TestSortedPairsHelper(t *testing.T) {
	r := rel(t, []string{ColSrc, ColTrg}, []Value{3, 4}, []Value{1, 2})
	got := sortedPairs(r)
	if got[0] != [2]Value{1, 2} || got[1] != [2]Value{3, 4} {
		t.Fatalf("sortedPairs = %v", got)
	}
}

// TestRelationVersion pins what moves Version: every mutator that changes
// the rows advances it, and no-ops and reads leave it where it was.
func TestRelationVersion(t *testing.T) {
	cols := []string{ColSrc, ColTrg}
	// base holds rows (1,2) and (3,4), its dedup set deferred.
	base := func() *Relation {
		r := NewRelation(cols...)
		r.AppendDistinct(NewBatchValues(2, 2, []Value{1, 2, 3, 4}))
		return r
	}
	other := NewRelation(cols...)
	other.Add([]Value{5, 6})
	other.Add([]Value{1, 2})
	cases := []struct {
		name    string
		op      func(r *Relation)
		changes bool
	}{
		{"Add of a new row", func(r *Relation) { r.Add([]Value{5, 6}) }, true},
		{"AddBatch", func(r *Relation) { r.AddBatch(NewBatchValues(2, 2, []Value{1, 2, 7, 8})) }, true},
		{"AddTuple", func(r *Relation) { r.AddTuple([]string{ColTrg, ColSrc}, []Value{6, 5}) }, true},
		{"UnionInPlace", func(r *Relation) { r.UnionInPlace(other) }, true},
		{"AppendDistinct", func(r *Relation) { r.AppendDistinct(NewBatchValues(2, 1, []Value{9, 9})) }, true},
		{"Remove of a present row", func(r *Relation) { r.Remove([]Value{1, 2}) }, true},
		{"duplicate Add", func(r *Relation) { r.Add([]Value{3, 4}) }, false},
		{"duplicate AddBatch", func(r *Relation) { r.AddBatch(NewBatchValues(2, 1, []Value{1, 2})) }, false},
		{"absent Remove", func(r *Relation) { r.Remove([]Value{4, 3}) }, false},
		{"empty AppendDistinct", func(r *Relation) { r.AppendDistinct(NewBatch(2)) }, false},
		{"nil AppendDistinct", func(r *Relation) { r.AppendDistinct(nil) }, false},
		{"Has, building the deferred set", func(r *Relation) { r.Has([]Value{1, 2}) }, false},
		{"Clone", func(r *Relation) { r.Clone().Add([]Value{5, 6}) }, false},
		{"Slice", func(r *Relation) { r.Slice(0, 1).Has([]Value{1, 2}) }, false},
		{"Union", func(r *Relation) { r.Union(other) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base()
			before, rows := r.Version(), r.Len()
			tc.op(r)
			if moved := r.Version() != before; moved != tc.changes {
				t.Errorf("version %d -> %d (rows %d -> %d), want changed=%v", before, r.Version(), rows, r.Len(), tc.changes)
			}
		})
	}
	// Versions strictly increase, so a relation never returns to a state
	// it was observed at.
	r := base()
	v0 := r.Version()
	r.Add([]Value{5, 6})
	v1 := r.Version()
	r.Remove([]Value{5, 6})
	if v1 <= v0 || r.Version() <= v1 {
		t.Errorf("versions %d, %d, %d: want strictly increasing across add and remove", v0, v1, r.Version())
	}
}
