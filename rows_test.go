package distmura

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// renderFixture returns a dictionary of 1 000 strings and an arity-2
// relation of n rows over it.
func renderFixture(n int) (*core.Dict, *core.Relation) {
	d := core.NewDict()
	for i := 0; i < 1000; i++ {
		d.Intern(fmt.Sprintf("node-%d", i))
	}
	rel := core.NewRelationSized(n, "x", "y")
	for i := 0; i < n; i++ {
		rel.Add([]core.Value{core.Value(i % 1000), core.Value(i / 1000)})
	}
	return d, rel
}

// TestRowsStringsRowsIndependent pins the Strings contract across render
// blocks: every row is a fresh slice the caller may keep and append to
// without clobbering another row, whatever mix of Strings and Scan the
// caller uses.
func TestRowsStringsRowsIndependent(t *testing.T) {
	const n = 700 // at arity 2, three blocks of at most 255 rows
	d, rel := renderFixture(n)

	rows := newRows(d, core.ScanRelation(rel), rel.Len(), QueryStats{})
	var kept, want [][]string
	for i := 0; rows.Next(); i++ {
		var x, y string
		if err := rows.Scan(&x, &y); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			continue // visited with Scan only
		}
		calls := 1
		if i%5 == 0 || i == n-1 {
			calls = 3 // the same row asked for again
		}
		for c := 0; c < calls; c++ {
			s := rows.Strings()
			if len(s) != 2 || cap(s) != 2 {
				t.Fatalf("row %d: Strings len %d cap %d, want 2 and 2", i, len(s), cap(s))
			}
			kept = append(kept, s)
			want = append(want, []string{x, y})
		}
	}
	for i := range kept {
		kept[i] = append(kept[i], fmt.Sprintf("extra-%d", i))
	}
	for i := range kept {
		if !slices.Equal(kept[i][:2], want[i]) || kept[i][2] != fmt.Sprintf("extra-%d", i) {
			t.Fatalf("kept row %d = %v after appends, want %v + extra-%d", i, kept[i], want[i], i)
		}
	}

	// A block holds the rows left from the cursor's position, capped at
	// renderBlockRows, so a 1-row result allocates a 1-row block.
	one := core.NewRelation("x", "y")
	one.Add([]core.Value{0, 1})
	r1 := newRows(d, core.ScanRelation(one), one.Len(), QueryStats{})
	if !r1.Next() {
		t.Fatal("1-row cursor yielded no row")
	}
	if s := r1.Strings(); !slices.Equal(s, []string{"node-0", "node-1"}) {
		t.Fatalf("1-row Strings = %v", s)
	}
	if len(r1.block) != 0 || cap(r1.block) != 0 {
		t.Fatalf("1-row result left len %d cap %d of its block, want a 1-row block", len(r1.block), cap(r1.block))
	}

	// Collect equals the per-row path and is sized to the rows left.
	var perRow [][]string
	rows = newRows(d, core.ScanRelation(rel), rel.Len(), QueryStats{})
	for rows.Next() {
		perRow = append(perRow, rows.Strings())
	}
	res, err := newRows(d, core.ScanRelation(rel), rel.Len(), QueryStats{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(res.Rows, perRow, slices.Equal[[]string]) {
		t.Fatal("Collect disagrees with the per-row Strings path")
	}
	if cap(res.Rows) != n {
		t.Fatalf("Collect rows cap %d, want %d", cap(res.Rows), n)
	}
}

var renderSink []string

// TestRowsRenderAllocs bounds the allocations of rendering a result: rows
// share render blocks, so N rows cost about N/255 allocations, not N.
func TestRowsRenderAllocs(t *testing.T) {
	const n = 10000
	d, rel := renderFixture(n)
	allocs := testing.AllocsPerRun(3, func() {
		rows := newRows(d, core.ScanRelation(rel), rel.Len(), QueryStats{})
		for rows.Next() {
			renderSink = rows.Strings()
		}
	})
	if bound := float64(n/200 + 8); allocs > bound {
		t.Fatalf("rendering %d rows allocated %.0f objects, bound %.0f", n, allocs, bound)
	}
}
