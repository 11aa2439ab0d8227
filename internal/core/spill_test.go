package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// assertNoSpillFiles fails the test if any visible spill file exists under
// dir. Spill runs are unlinked on creation, so the directory must look
// empty even while spilling is in flight.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "mura-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) > 0 {
		t.Fatalf("leftover spill files in %s: %v", dir, matches)
	}
}

func TestMemGaugeAccounting(t *testing.T) {
	var nilGauge *MemGauge
	if nilGauge.Over() || nilGauge.Used() != 0 {
		t.Fatal("nil gauge must be inert")
	}
	g := NewMemGauge(100, t.TempDir())
	g.Charge(60)
	if g.Over() {
		t.Fatal("60/100 should not be over budget")
	}
	g.Charge(50)
	if !g.Over() || g.Used() != 110 || g.Peak() != 110 {
		t.Fatalf("used=%d peak=%d over=%v", g.Used(), g.Peak(), g.Over())
	}
	g.Release(80)
	if g.Over() || g.Used() != 30 || g.Peak() != 110 {
		t.Fatalf("after release: used=%d peak=%d over=%v", g.Used(), g.Peak(), g.Over())
	}
}

func TestSpillRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := NewMemGauge(0, dir)
	const n = 1000
	one := spillSegment{gauge: g}
	run, err := one.extent(3, n)
	one.close() // the run holds the file on its own
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	assertNoSpillFiles(t, dir) // unlinked immediately, even while open
	for i := 0; i < n; i++ {
		if err := run.append([]Value{Value(i), Value(-i), Value(i * i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.finish(); err != nil {
		t.Fatal(err)
	}
	if run.records() != n {
		t.Fatalf("records=%d want %d", run.records(), n)
	}
	got := make([]Value, 3)
	for _, i := range []int{0, 1, 499, n - 1} {
		run.readRange(i, i+1, got)
		want := []Value{Value(i), Value(-i), Value(i * i)}
		if !rowsEqual(got, want) {
			t.Fatalf("record %d = %v, want %v", i, got, want)
		}
	}
	bulk := make([]Value, 3*10)
	run.readRange(100, 110, bulk)
	if bulk[0] != 100 || bulk[3] != 101 {
		t.Fatalf("bulk read wrong: %v", bulk[:6])
	}
	// Reads are metered where they happen: four single records and one
	// ten-record range, 24 bytes a record.
	if g.SpillReads() != 5 || g.SpillReadBytes() != (4+10)*24 {
		t.Fatalf("spill reads=%d bytes=%d, want 5 reads of %d bytes", g.SpillReads(), g.SpillReadBytes(), (4+10)*24)
	}

	// Two extents of one segment file: the second run starts at byte
	// 1000*24 = 24000, inside a page, so its mapping starts at the page
	// boundary below and its records must be found at the right offset.
	seg := spillSegment{gauge: g}
	defer seg.close()
	var runs []*spillRun
	for e, recs := range []int{n, 700} {
		r, err := seg.extent(3, recs)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i := 0; i < recs; i++ {
			if err := r.append([]Value{Value(e), Value(i), Value(-i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.finish(); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	if runs[1].base%int64(os.Getpagesize()) == 0 {
		t.Fatalf("second extent starts at page-aligned byte %d", runs[1].base)
	}
	for e, r := range runs {
		for i := 0; i < r.records(); i++ {
			r.readRange(i, i+1, got)
			if want := []Value{Value(e), Value(i), Value(-i)}; !rowsEqual(got, want) {
				t.Fatalf("extent %d record %d = %v, want %v", e, i, got, want)
			}
		}
	}
}

// spillAndReference inserts the same rows into a starved budgeted
// accumulator (evicting every few batches) and an unbudgeted reference,
// and returns both materializations.
func spillAndReference(t *testing.T, dir string, rows [][]Value) (*Relation, *Relation) {
	t.Helper()
	g := NewMemGauge(1<<10, dir) // 1 KiB: a few dozen binary rows
	acc := NewAccumulator(g, ColSrc, ColTrg)
	defer acc.Close()
	ref := NewAccumulator(nil, ColSrc, ColTrg)
	for i, row := range rows {
		a1 := acc.Add(row)
		a2 := ref.Add(row)
		if a1 != a2 {
			t.Fatalf("row %d %v: budgeted added=%v reference added=%v", i, row, a1, a2)
		}
		if i%64 == 63 {
			acc.EvictBelow(acc.Mark())
		}
	}
	if g.Spills() == 0 {
		t.Fatal("starved accumulator never spilled")
	}
	if acc.Frozen() == 0 {
		t.Fatal("no rows frozen despite spills")
	}
	// Compaction invariant: many eviction rounds, still at most one run
	// (one descriptor) per shard.
	if acc.Runs() > accShards {
		t.Fatalf("compaction failed: %d runs for %d shards", acc.Runs(), accShards)
	}
	if acc.Len() != ref.Len() {
		t.Fatalf("budgeted Len=%d reference Len=%d", acc.Len(), ref.Len())
	}
	return acc.Materialize(), ref.Materialize()
}

func TestAccumulatorSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var rows [][]Value
	// Duplicates included deliberately: re-insertions must be rejected
	// through the frozen runs' fingerprint filters + disk verification.
	for i := 0; i < 600; i++ {
		rows = append(rows, []Value{Value(i % 200), Value((i * 7) % 150)})
	}
	got, want := spillAndReference(t, dir, rows)
	if !SameRows(got, want) {
		t.Fatalf("spilled materialization differs: %d vs %d rows", got.Len(), want.Len())
	}
	assertNoSpillFiles(t, dir)
}

func TestAccumulatorHasConsultsFrozenRuns(t *testing.T) {
	g := NewMemGauge(256, t.TempDir())
	acc := NewAccumulator(g, ColSrc, ColTrg)
	defer acc.Close()
	for i := 0; i < 100; i++ {
		acc.Add([]Value{Value(i), Value(i + 1)})
	}
	if n := acc.EvictBelow(acc.Mark()); n == 0 {
		t.Fatal("expected eviction under a 256-byte budget")
	}
	for i := 0; i < 100; i++ {
		if !acc.Has([]Value{Value(i), Value(i + 1)}) {
			t.Fatalf("row %d lost after eviction", i)
		}
		if acc.Add([]Value{Value(i), Value(i + 1)}) {
			t.Fatalf("frozen row %d re-added as new", i)
		}
	}
	if acc.Has([]Value{Value(5), Value(99)}) {
		t.Fatal("phantom row reported present")
	}
}

// TestAccumulatorEvictInsideSegment: an eviction whose watermark falls
// inside a store segment in every shard, leaving a surviving suffix that
// spans at least two fresh segments. Delta views taken before the
// eviction stay valid, views taken after it agree with them, and
// membership and materialization match the reference across the frozen
// run, the compacted suffix and rows pushed after it.
func TestAccumulatorEvictInsideSegment(t *testing.T) {
	rowOf := func(i int) []Value { return []Value{Value(i), Value(i*7 + 1)} }
	const part = 20_000
	acc := NewAccumulator(NewMemGauge(1<<10, t.TempDir()), ColSrc, ColTrg)
	defer acc.Close()
	ref := NewRelation(ColSrc, ColTrg)
	add := func(lo, hi int) AccMark {
		for i := lo; i < hi; i++ {
			acc.Add(rowOf(i))
			ref.Add(rowOf(i))
		}
		return acc.Mark()
	}
	collect := func(views []*Relation) *Relation {
		out := NewRelation(ColSrc, ColTrg)
		for _, v := range views {
			Drain(ScanRelation(v), out)
		}
		return out
	}
	m1 := add(0, part)
	m2 := add(part, 2*part)
	want := ref.Slice(part, 2*part)
	before := acc.DeltaViews(m1, m2)
	if n := acc.EvictBelow(m1); n != part {
		t.Fatalf("eviction froze %d rows, want %d", n, part)
	}
	for i := range acc.shards {
		sh := &acc.shards[i]
		if _, off := segOf(m1[i]); off == 0 {
			t.Fatalf("shard %d: watermark %d is a segment boundary", i, m1[i])
		}
		if len(sh.segs) < 2 {
			t.Fatalf("shard %d: %d surviving rows fit one segment", i, sh.n-sh.frozen)
		}
	}
	if got := collect(before); !SameRows(got, want) {
		t.Fatal("delta views taken before the eviction changed under it")
	}
	if got := collect(acc.DeltaViews(m1, m2)); !SameRows(got, want) {
		t.Fatal("delta views over the compacted suffix differ from the window's rows")
	}
	m3 := add(2*part, 3*part)
	if got := collect(acc.DeltaViews(m2, m3)); !SameRows(got, ref.Slice(2*part, 3*part)) {
		t.Fatal("delta views of rows pushed after the eviction differ")
	}
	for i := 0; i < 3*part; i++ {
		if !acc.Has(rowOf(i)) {
			t.Fatalf("row %d lost", i)
		}
	}
	if acc.Has(rowOf(3*part)) || acc.Add(rowOf(part)) {
		t.Fatal("membership disagrees with the reference")
	}
	if got := acc.Materialize(); !SameRows(got, ref) {
		t.Fatalf("materialized %d rows, reference %d", got.Len(), ref.Len())
	}
}

// TestSpilledFixpointMatchesUnbudgeted is the acceptance check for the
// local evaluator: a closure forced to a budget smaller than half its
// measured working set completes with spilling and produces rows
// SameRows-equal to the unbudgeted run.
func TestSpilledFixpointMatchesUnbudgeted(t *testing.T) {
	edges := NewRelation(ColSrc, ColTrg)
	const n = 96
	for i := 0; i < n-1; i++ {
		edges.Add([]Value{Value(i), Value(i + 1)})
	}
	env := NewEnv()
	env.Bind("E", edges)
	term := ClosureLR("X", &Var{Name: "E"})

	// Unbudgeted run with a metering-only gauge: measures the working set.
	meter := NewMemGauge(0, "")
	evFree := NewEvaluator(env)
	evFree.Gauge = meter
	defer evFree.Close()
	want, err := evFree.Eval(term)
	if err != nil {
		t.Fatal(err)
	}
	if meter.Peak() == 0 {
		t.Fatal("metering gauge saw no charges")
	}
	if meter.Spills() != 0 {
		t.Fatal("metering-only gauge must never spill")
	}

	for _, parallel := range []int{1, 4} {
		dir := t.TempDir()
		budget := meter.Peak() / 3 // well under half the working set
		g := NewMemGauge(budget, dir)
		ev := NewEvaluator(env)
		ev.Gauge = g
		ev.Parallel = parallel
		got, err := ev.Eval(term)
		ev.Close()
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if g.Spills() == 0 {
			t.Fatalf("parallel=%d: budget %d (< peak %d / 2) did not spill", parallel, budget, meter.Peak())
		}
		if !SameRows(got, want) {
			t.Fatalf("parallel=%d: spilled closure differs: %d vs %d rows", parallel, got.Len(), want.Len())
		}
		assertNoSpillFiles(t, dir)
	}

	// Random edges dense enough for the parallel probe path, once with a
	// budget the constant side's join index fits and once with a budget
	// below the index's own charge. Either way the index stays in memory
	// with its charge on the gauge, and only the accumulator spills. φ's
	// rows go straight into the fixpoint accumulator, so an eviction during
	// an iteration must leave that iteration's rows — the next delta — in
	// memory.
	t.Run("large_delta", func(t *testing.T) {
		env := NewEnv()
		env.Bind("E", randomBinaryRelation(rand.New(rand.NewSource(5)), 1800, 150))
		want, err := Eval(term, env)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name       string
			budget     int64
			overBudget bool // the index alone charges more than the budget
		}{
			{"in_memory_index", 256 << 10, false},
			{"index_over_budget", 16 << 10, true},
		} {
			t.Run(tc.name, func(t *testing.T) {
				dir := t.TempDir()
				g := NewMemGauge(tc.budget, dir)
				ev := NewEvaluator(env)
				ev.Gauge = g
				ev.Parallel = 4
				defer ev.Close()
				got, err := ev.Eval(term)
				if err != nil {
					t.Fatal(err)
				}
				if !SameRows(got, want) {
					t.Fatalf("budgeted fixpoint: %d rows, want %d", got.Len(), want.Len())
				}
				if g.Spills() == 0 {
					t.Fatal("nothing spilled: the budget does not exercise eviction")
				}
				if ev.Stats.ParallelSteps == 0 {
					t.Fatal("no iteration took the parallel probe path")
				}
				var charged int64
				indexes := 0
				for _, op := range ev.memo {
					for _, ix := range op.ixs {
						indexes++
						if ix.buckets == nil {
							t.Fatalf("constant-side index of %d rows is not in memory", ix.Rows())
						}
					}
					if want := int64(op.rel.Len()*len(op.ixs)) * IndexRowBytes; op.bytes != want {
						t.Fatalf("operand of %d rows with %d indexes charges %d B, want %d", op.rel.Len(), len(op.ixs), op.bytes, want)
					}
					charged += op.bytes
				}
				if indexes == 0 {
					t.Fatal("no constant-side join index was cached")
				}
				if g.Used() < charged {
					t.Fatalf("gauge holds %d B, below the cached indexes' %d B", g.Used(), charged)
				}
				if tc.overBudget != (charged > tc.budget) {
					t.Fatalf("indexes charge %d B against a %d B budget, want over = %v", charged, tc.budget, tc.overBudget)
				}
				assertNoSpillFiles(t, dir)
			})
		}
	})
}

// TestAccumulatorConcurrentProbeDuringEviction is the -race stress for the
// spill path: writers absorb batches and readers probe membership while
// the main goroutine keeps evicting shards to disk.
func TestAccumulatorConcurrentProbeDuringEviction(t *testing.T) {
	g := NewMemGauge(1<<9, t.TempDir())
	acc := NewAccumulator(g, ColSrc, ColTrg)
	defer acc.Close()
	const writers = 3
	const probers = 2
	const perWriter = 400
	var writerWG, proberWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			ab := acc.Absorber()
			b := NewBatch(2)
			for i := 0; i < perWriter; i++ {
				b.reset()
				// Overlapping ranges across writers: plenty of duplicate
				// pressure against frozen rows.
				b.AppendRow([]Value{Value((w*perWriter/2 + i) % 500), Value(i % 97)})
				ab.AbsorbBatch(b)
			}
		}(w)
	}
	stop := make(chan struct{})
	for p := 0; p < probers; p++ {
		proberWG.Add(1)
		go func() {
			defer proberWG.Done()
			row := make([]Value, 2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row[0], row[1] = Value(i%500), Value(i%97)
				acc.Has(row)
			}
		}()
	}
	// Keep evicting until the writers are done, then stop the probers.
	writersDone := make(chan struct{})
	go func() { writerWG.Wait(); close(writersDone) }()
	for evicting := true; evicting; {
		select {
		case <-writersDone:
			evicting = false
		default:
			acc.EvictBelow(acc.Mark())
		}
	}
	close(stop)
	proberWG.Wait()

	ref := NewAccumulator(nil, ColSrc, ColTrg)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			ref.Add([]Value{Value((w*perWriter/2 + i) % 500), Value(i % 97)})
		}
	}
	got, want := acc.Materialize(), ref.Materialize()
	if !SameRows(got, want) {
		t.Fatalf("concurrent spill run differs: %d vs %d rows", got.Len(), want.Len())
	}
}

// TestChildGaugeEnforcesParentBudget: a per-query child gauge trips not
// only on its own budget but also when the shared worker (parent) gauge
// is over — N concurrent queries cannot multiply a worker's memory by N.
func TestChildGaugeEnforcesParentBudget(t *testing.T) {
	parent := NewMemGauge(1000, t.TempDir())
	a := NewMemGaugeChild(parent)
	b := NewMemGaugeChild(parent)
	a.Charge(600)
	if a.Over() {
		t.Fatal("child over at 600/1000 with an in-budget parent")
	}
	b.Charge(600)
	// Parent sees 1200 > 1000: both children must now report over even
	// though each is individually under its own budget.
	if !parent.Over() {
		t.Fatalf("parent not over at %d/1000", parent.Used())
	}
	c := NewMemGaugeChild(parent)
	if !a.Over() || !b.Over() || !c.Over() {
		t.Fatal("children ignore the over-budget parent")
	}
	a.Release(600)
	b.Release(600)
	if parent.Used() != 0 || a.Over() || c.Over() {
		t.Fatalf("release did not propagate: parent used=%d", parent.Used())
	}
	// Spill events mirror upward with exact per-child attribution.
	a.noteSpill(10)
	b.noteSpill(20)
	if a.Spills() != 1 || b.Spills() != 1 || parent.Spills() != 2 || parent.SpilledBytes() != 30 {
		t.Fatalf("spill mirroring wrong: a=%d b=%d parent=%d/%dB",
			a.Spills(), b.Spills(), parent.Spills(), parent.SpilledBytes())
	}
}

// TestStarvedStepFreezesXAndFilter: loops stepped as Pgld steps them —
// through a lockstep exchange among one and among three workers — under a
// starved gauge freeze rows of X and, with peers, of the per-owner shuffle
// filters between steps (the accumulators a Pgld worker holds), still
// reach the unbudgeted fixpoint, and return every charge and spill file
// once closed.
func TestStarvedStepFreezesXAndFilter(t *testing.T) {
	edges := sparseRelation(rand.New(rand.NewSource(5)), 120, 360)
	env := NewEnv()
	env.Bind("E", edges)
	term := ClosureLR("X", &Var{Name: "E"})
	want, err := Eval(term, env)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(term)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3} {
		dir := t.TempDir()
		g := NewMemGauge(1<<10, dir)
		got, loops, evs := lockstepFixpoint(t, d, edges, env, w, g)
		xFrozen, filterFrozen := 0, 0
		for _, l := range loops {
			for p, a := range l.dst {
				if p == l.self {
					xFrozen += a.Frozen()
				} else {
					filterFrozen += a.Frozen()
				}
			}
		}
		closeLockstep(loops, evs)
		if xFrozen == 0 || (w > 1 && filterFrozen == 0) {
			t.Fatalf("%d workers: starved loops froze %d rows of X and %d of their filters; want both > 0 (filters only with peers)",
				w, xFrozen, filterFrozen)
		}
		if !SameRows(got, want) {
			t.Fatalf("%d workers: starved exchange-stepped fixpoint has %d rows, want %d", w, got.Len(), want.Len())
		}
		if g.Used() != 0 {
			t.Fatalf("%d workers: gauge holds %d bytes after Close", w, g.Used())
		}
		assertNoSpillFiles(t, dir)
	}
}
