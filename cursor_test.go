package distmura

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// These tests pin the cursor's read-in-place result path: a cursor reads
// a root fixpoint's rows where they lie — in the sub-result cache's
// relation, or in the frames the workers shipped — and must still yield
// exactly the rows of the graph state its query ran on.

// ringGraph is a directed ring n0→n1→…→n(n-1)→n0 over "knows", plus an
// edge n0→sink into a node with no way out; its closure has n·(n+1) rows.
func ringGraph(n int) *graphgen.Graph {
	g := graphgen.NewGraph("ring")
	for i := 0; i < n; i++ {
		g.Add(fmt.Sprintf("n%d", i), "knows", fmt.Sprintf("n%d", (i+1)%n))
	}
	g.Add("n0", "knows", "sink")
	return g
}

// drainRendered renders the cursor's remaining rows, joined by "|", and
// closes it.
func drainRendered(t *testing.T, rows *Rows) []string {
	t.Helper()
	var out []string
	for rows.Next() {
		out = append(out, strings.Join(rows.Strings(), "|"))
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// rendered joins a collected result's rows by "|", sorted.
func rendered(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = strings.Join(r, "|")
	}
	slices.Sort(out)
	return out
}

// sameSet fails unless got, in any order, is want.
func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	got = slices.Clone(got)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
}

// TestCursorIsolatedFromCacheRefresh opens a cursor on a closure the
// sub-result cache serves — the cursor reads the cached relation in place
// — then deletes an edge (a DRed refresh of the entry: over-delete,
// rederive) and inserts one (a resumed refresh), each observed by a query
// that refreshes the entry, and only then drains the first cursor: it
// yields exactly the rows from before the writes.
func TestCursorIsolatedFromCacheRefresh(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(dredDiamond())
	ctx := context.Background()
	const q = "?x,?y <- ?x knows+ ?y"
	cold, err := eng.QueryCollect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := rendered(cold)
	rows, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Stats().SubResultHits == 0 {
		t.Fatal("the warm query was not served from the sub-result cache")
	}
	if !rows.Next() {
		t.Fatal("empty closure")
	}
	got := []string{strings.Join(rows.Strings(), "|")}

	eng.DeleteTriple("b", "knows", "d")
	del, err := eng.QueryCollect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if del.Stats.Refreshes == 0 || del.Stats.Retractions == 0 {
		t.Fatalf("the delete was not maintained by DRed: %+v", del.Stats)
	}
	eng.AddTriple("e", "knows", "f")
	ins, err := eng.QueryCollect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Stats.Refreshes == 0 || len(ins.Rows) <= len(del.Rows) {
		t.Fatalf("the insert was not maintained: %d rows after, %d before, %+v", len(ins.Rows), len(del.Rows), ins.Stats)
	}
	sameSet(t, "cursor drained after the writes", append(got, drainRendered(t, rows)...), want)
}

// TestCursorIsolatedFromGraphWrites opens cursors whose roots read the
// triple relation G or a caller's binding — ρ over G, bare G, ρ over a
// bound relation, a µ with no recursive branch whose seed the operand memo
// serves, π̃ over a cached µ that the operand memo serves as the root —
// then writes to what they read before draining them: each yields the
// rows from before the write, because a relation a write can change is
// copied, never aliased, and so is a memoized seed, and a memoized root
// is replaced, never updated in place.
func TestCursorIsolatedFromGraphWrites(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(dredDiamond())
	ctx := context.Background()
	bound := core.NewRelation("a", "b")
	bound.Add([]core.Value{1, 2})
	g := &core.Var{Name: edgeRel}
	knows, _ := eng.Graph().Dict.Lookup("knows")
	// µ(X = π̃[pred](σ[pred=knows](G))): its value is its seed. Forcing
	// Ps_plw keeps the sub-result cache out, so each query reads the seed
	// from the operand memo.
	seedOnly := &core.Fixpoint{X: "X", Body: core.EdgeRel(edgeRel, knows)}
	// π̃[src](knows+): the second query's root is the operand memo's.
	reached := core.NewAntiProject(core.ClosureLR("X", core.EdgeRel(edgeRel, knows)), core.ColSrc)
	for _, tc := range []struct {
		name    string
		term    core.Term
		extra   map[string]*core.Relation
		opts    []QueryOption
		memoHit bool // the second query reads its seed or its root from the operand memo
		write   func()
	}{
		{"ρ over G", &core.Rename{From: core.ColSrc, To: "s", T: g}, nil, nil, false,
			func() { eng.DeleteTriple("a", "knows", "b") }},
		{"bare G", g, nil, nil, false,
			func() { eng.DeleteTriple("a", "knows", "c") }},
		{"ρ over a binding", &core.Rename{From: "a", To: "z", T: &core.Var{Name: "R"}}, map[string]*core.Relation{"R": bound}, nil, false,
			func() { bound.Add([]core.Value{3, 4}) }},
		{"µ over a memoized seed", seedOnly, nil, []QueryOption{WithPlan(PlanSplw)}, true,
			func() { eng.DeleteTriple("b", "knows", "d") }},
		{"π̃ over a cached µ", reached, nil, nil, true,
			func() { eng.DeleteTriple("d", "knows", "e") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, err := eng.QueryTerm(ctx, tc.term, tc.extra, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := before.Collect()
			if err != nil {
				t.Fatal(err)
			}
			want := rendered(res)
			memo := eng.OperandMemoStats()
			rows, err := eng.QueryTerm(ctx, tc.term, tc.extra, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if st := eng.OperandMemoStats(); tc.memoHit && (st.Hits == memo.Hits || st.Misses != memo.Misses) {
				t.Fatalf("the second query was not served by the operand memo: %+v, then %+v", memo, st)
			}
			tc.write()
			sameSet(t, "cursor drained after the write", drainRendered(t, rows), want)
			after, err := eng.QueryTerm(ctx, tc.term, tc.extra, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if after.Len() == len(want) {
				t.Fatal("the write changed nothing the query reads")
			}
			after.Close()
		})
	}
}

// TestFrameBackedCursor pins the cursor contract on a root fixpoint that
// nothing keeps — the sub-result cache off — whose rows the cursor scans
// in the frames the workers shipped: Len is exact, Strings sizes each
// render block by the rows left, Collect after a partial walk returns the
// rest, and an empty result is a well-formed empty cursor.
func TestFrameBackedCursor(t *testing.T) {
	const n = 40
	eng, err := Open(Options{Workers: 3, DisableSubResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(ringGraph(n))
	ctx := context.Background()
	const q = "?x,?y <- ?x knows+ ?y"
	const total = n * (n + 1)

	rows, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if st := rows.Stats(); st.SubResultHits != 0 || !strings.Contains(st.Plan, "Ps_plw") {
		t.Fatalf("not a computed Ps_plw root: %+v", st)
	}
	if rows.Len() != total {
		t.Fatalf("Len %d, want %d", rows.Len(), total)
	}
	var all []string
	for rows.Next() {
		fresh := len(rows.block) < 2
		all = append(all, strings.Join(rows.Strings(), "|"))
		if fresh {
			// A new block holds the rows left from this one on, up to
			// renderBlockRows; this row took the first.
			if want := 2 * (min(renderBlockRows, total-len(all)+1) - 1); len(rows.block) != want {
				t.Fatalf("row %d: block of %d strings left, want %d", len(all), len(rows.block), want)
			}
		}
	}
	rows.Close()
	if len(all) != total {
		t.Fatalf("walked %d rows, Len said %d", len(all), total)
	}
	want := slices.Clone(all)
	slices.Sort(want)
	if len(slices.Compact(slices.Clone(want))) != total {
		t.Fatal("the cursor yielded a row twice")
	}

	rows, err = eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 300 && rows.Next(); i++ {
		got = append(got, strings.Join(rows.Strings(), "|"))
	}
	rest, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rest.Rows) != total-300 {
		t.Fatalf("Collect after 300 rows returned %d, want %d", len(rest.Rows), total-300)
	}
	for _, r := range rest.Rows {
		got = append(got, strings.Join(r, "|"))
	}
	sameSet(t, "partial walk plus Collect", got, want)

	empty, err := eng.Query(ctx, "?y <- sink knows+ ?y")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 || empty.Next() || empty.Strings() != nil || !slices.Equal(empty.Columns(), []string{"?y"}) {
		t.Fatalf("empty result: Len %d, columns %v", empty.Len(), empty.Columns())
	}
	res, err := empty.Collect()
	if err != nil || len(res.Rows) != 0 || !slices.Equal(res.Columns, []string{"?y"}) {
		t.Fatalf("empty Collect: %v, %+v", err, res)
	}
}

// warmClosureAllocBound bounds the bytes one warm query of the ring's
// closure allocates, from Query through the last Next to Close, with the
// plan and the fixpoint served from the caches. The closure of the
// 300-node ring is 90 300 rows, 1.44 MB of values. Measured the same way
// (median of 5 runs, amd64), a query allocated 1 976 504 B when the root
// copied the cached relation, and about 6 kB reading it in place. The
// bound leaves room for the latter to vary and fails if any copy of the
// result comes back.
const warmClosureAllocBound = 256 << 10

// TestWarmCachedClosureAllocBound pins that the cursor reads a cached
// root fixpoint in place.
func TestWarmCachedClosureAllocBound(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(ringGraph(300))
	ctx := context.Background()
	const q = "?x,?y <- ?x knows+ ?y"
	run := func(warm bool) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		rows.Close()
		runtime.ReadMemStats(&after)
		if n != 300*301 || warm && rows.Stats().SubResultHits == 0 {
			t.Fatalf("%d rows, stats %+v", n, rows.Stats())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run(false) // fills the plan and sub-result caches
	var got []uint64
	for i := 0; i < 5; i++ {
		got = append(got, run(true))
	}
	slices.Sort(got)
	t.Logf("warm cached closure: median %d B allocated per query", got[2])
	if got[2] > warmClosureAllocBound {
		t.Fatalf("a warm cached closure allocated %d B (median of 5), bound %d B: the result is copied again", got[2], warmClosureAllocBound)
	}
}

// TestConcurrentCursorsOnOneCacheEntry opens four cursors on one cached
// closure — all four read the same cache entry in place — and drains
// them concurrently while a writer deletes and inserts edges and
// refreshes the entry through queries of its own: every cursor yields
// exactly the rows from before the writes.
func TestConcurrentCursorsOnOneCacheEntry(t *testing.T) {
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.UseGraph(ringGraph(30))
	ctx := context.Background()
	const q = "?x,?y <- ?x knows+ ?y"
	cold, err := eng.QueryCollect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := rendered(cold)
	cursors := make([]*Rows, 4)
	for i := range cursors {
		if cursors[i], err = eng.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
		if cursors[i].Stats().SubResultHits == 0 {
			t.Fatal("a warm query was not served from the sub-result cache")
		}
	}
	got := make([][]string, len(cursors))
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(len(cursors) + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			eng.DeleteTriple(fmt.Sprintf("n%d", i), "knows", fmt.Sprintf("n%d", i+1))
			if _, err := eng.QueryCollect(ctx, q); err != nil {
				errs <- err
				return
			}
			eng.AddTriple(fmt.Sprintf("n%d", i), "knows", fmt.Sprintf("n%d", i+1))
			if _, err := eng.QueryCollect(ctx, q); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i, rows := range cursors {
		go func(i int, rows *Rows) {
			defer wg.Done()
			for rows.Next() {
				got[i] = append(got[i], strings.Join(rows.Strings(), "|"))
			}
			rows.Close()
		}(i, rows)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	for i := range got {
		sameSet(t, fmt.Sprintf("cursor %d", i), got[i], want)
	}
}
