package core

import (
	"errors"
	"slices"
	"testing"
)

// TestAccumulatorScanMatchesMaterialize checks that the rows an
// accumulator hands out through Scan — what a plan ships to the driver
// straight from X — are exactly Materialize's rows: in memory, where every
// stretch is a zero-copy segment view, and under a starved gauge, where
// frozen runs are decoded a chunk at a time into one reused buffer before
// the surviving segments follow.
func TestAccumulatorScanMatchesMaterialize(t *testing.T) {
	rowOf := func(i int) []Value { return []Value{Value(i % 977), Value(i*7 + 1)} }
	const part = 20_000
	for _, tc := range []struct {
		name  string
		gauge *MemGauge
	}{
		{"in memory", nil},
		{"frozen runs", NewMemGauge(1<<10, t.TempDir())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acc := NewAccumulator(tc.gauge, ColSrc, ColTrg)
			defer acc.Close()
			ref := NewRelation(ColSrc, ColTrg)
			for i := 0; i < 2*part; i++ {
				if i == part {
					acc.EvictBelow(acc.Mark())
				}
				acc.Add(rowOf(i))
				ref.Add(rowOf(i))
			}
			if frozen := acc.Frozen(); (tc.gauge != nil) != (frozen > 0) {
				t.Fatalf("%d rows frozen", frozen)
			}
			// Copy each stretch out, without deduplicating: a row handed
			// out twice would show as an extra row.
			got := NewRelation(ColSrc, ColTrg)
			var bufs [][]Value
			if err := acc.Scan(func(b *Batch) error {
				if b.Len() == 0 {
					t.Fatal("Scan handed out an empty batch")
				}
				bufs = append(bufs, b.Values())
				got.AppendDistinct(b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got.Len() != acc.Len() || !SameRows(got, ref) {
				t.Fatalf("Scan yielded %d rows, accumulator holds %d, reference %d", got.Len(), acc.Len(), ref.Len())
			}
			if m := acc.Materialize(); !SameRows(got, m) {
				t.Fatalf("Scan's rows differ from Materialize's (%d rows)", m.Len())
			}
			// Frozen chunks reuse one buffer; every other stretch is a
			// distinct store segment.
			distinct := map[*Value]bool{}
			for _, v := range bufs {
				distinct[&v[:1][0]] = true
			}
			if reused := len(bufs) - len(distinct); (tc.gauge != nil) != (reused > 0) {
				t.Fatalf("%d of %d stretches reused a buffer", reused, len(bufs))
			}
			stop := errors.New("stop")
			calls := 0
			if err := acc.Scan(func(*Batch) error { calls++; return stop }); err != stop || calls != 1 {
				t.Fatalf("Scan returned %v after %d calls, want f's error after one", err, calls)
			}
		})
	}
}

// TestRenamedStreamComposesChain checks the root rename chain: composed
// to the identity, batches pass through untouched under the renamed
// schema; a real permutation reorders every row; an invalid chain fails.
func TestRenamedStreamComposesChain(t *testing.T) {
	rel := NewRelation(ColSrc, ColTrg)
	for i := 0; i < 3*BatchRowsFor(2); i++ {
		rel.Add([]Value{Value(i), Value(i + 1)})
	}
	term := func(from1, to1, from2, to2 string) Term {
		return &Rename{From: from1, To: to1, T: &Rename{From: from2, To: to2, T: &Var{Name: "X"}}}
	}
	// ?x,?y <- ?x e+ ?y: src→?x, trg→?y keeps the column order.
	chain, base := PeelRenames(term(ColSrc, "?x", ColTrg, "?y"))
	if len(chain) != 2 || base.(*Var).Name != "X" {
		t.Fatalf("peeled %d renames down to %v", len(chain), base)
	}
	it, err := RenamedStream(ScanRelation(rel), chain)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(it.Cols(), []string{"?x", "?y"}) {
		t.Fatalf("columns %v", it.Cols())
	}
	in := ScanRelation(rel)
	for b := it.Next(); b != nil; b = it.Next() {
		if w := in.Next(); &b.Values()[0] != &w.Values()[0] {
			t.Fatal("an identity rename chain copied a batch")
		}
	}
	// ?b,?a <- ?b e+ ?a: src→?b, trg→?a swaps the columns.
	chain, _ = PeelRenames(term(ColSrc, "?b", ColTrg, "?a"))
	it, err = RenamedStream(ScanRelation(rel), chain)
	if err != nil {
		t.Fatal(err)
	}
	want := NewRelation("?a", "?b")
	for i := 0; i < rel.Len(); i++ {
		row := rel.RowAt(i)
		want.Add([]Value{row[1], row[0]})
	}
	got := NewRelation(it.Cols()...)
	for b := it.Next(); b != nil; b = it.Next() {
		got.AppendDistinct(b)
	}
	if !SameRows(got, want) {
		t.Fatalf("permuted stream differs: %d rows, want %d", got.Len(), want.Len())
	}
	// The chain is accepted exactly when the schema checker accepts it: a
	// missing column and a target already present fail, a rename and its
	// inverse compose to the identity.
	for _, c := range []Term{
		term(ColSrc, "?x", "nope", "?y"),
		&Rename{From: ColSrc, To: ColTrg, T: &Var{Name: "X"}},
		term("?y", ColTrg, ColTrg, "?y"),
	} {
		chain, _ = PeelRenames(c)
		_, schemaErr := Schema(c, SchemaEnv{"X": rel.Cols()})
		_, err := RenamedStream(ScanRelation(rel), chain)
		if (err == nil) != (schemaErr == nil) {
			t.Fatalf("%v: RenamedStream error %v, schema error %v", c, err, schemaErr)
		}
	}
}
