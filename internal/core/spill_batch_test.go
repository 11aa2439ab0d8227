package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// This file tests the two halves of the spill path's batch bookkeeping:
// the eviction sort, which must leave every run in the order the
// comparator sort it replaced produced, and the per-batch gauge
// accounting, which must leave every quiescent total where per-row
// charging left it.

// comparatorOrder is the eviction order by definition: (hash, values), as
// a comparator sort.
func comparatorOrder(keys []evictKey, rowOf func(int32) []Value) []evictKey {
	out := slices.Clone(keys)
	slices.SortFunc(out, func(x, y evictKey) int {
		if c := cmp.Compare(x.h, y.h); c != 0 {
			return c
		}
		if lessRows(rowOf(x.i), rowOf(y.i)) {
			return -1
		}
		return 1
	})
	return out
}

// TestEvictSortMatchesComparator checks sortEvictKeys against the
// comparator order on fabricated hashes: one shard's routing bits or
// none in common, hashes that differ only in their low bytes (the high
// passes skipped), and forced runs of equal hashes
// over distinct rows, down to a whole batch under one hash. It then checks
// the runs an accumulator builds from the property test's universes,
// record by record, against the comparator order of the rows frozen.
func TestEvictSortMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tmp []evictKey
	for trial := 0; trial < 200; trial++ {
		n := []int{0, 1, 2, 3, 17, 256, 1000, 4000}[trial%8]
		var mask, fixed uint64 = ^uint64(0), 0
		switch trial % 4 {
		case 1: // one shard, as evictShardLocked sees it
			mask, fixed = ^uint64(0)>>accShardBits, uint64(rng.Intn(accShards))<<(64-accShardBits)
		case 2: // only the low 16 bits vary
			mask, fixed = 0xffff, rng.Uint64()&^0xffff
		case 3: // one hash for every row
			mask, fixed = 0, rng.Uint64()
		}
		rows := make([][]Value, n)
		keys := make([]evictKey, n)
		for i := range keys {
			rows[i] = []Value{Value(trial), Value(i), Value(rng.Intn(3))}
			h := rng.Uint64()&mask | fixed
			if i > 0 && rng.Intn(8) == 0 { // an equal-hash run of distinct rows
				h = keys[rng.Intn(i)].h
			}
			keys[i] = evictKey{h, int32(i)}
		}
		rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		rowOf := func(i int32) []Value { return rows[i] }
		want := comparatorOrder(keys, rowOf)
		if cap(tmp) < n {
			tmp = make([]evictKey, n)
		}
		if got := sortEvictKeys(keys, tmp, rowOf); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d keys): radix order differs from the comparator order", trial, n)
		}
	}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		uni := engineeredUniverse(rng)
		if seed%2 == 1 {
			uni = naturalUniverse(t)
		}
		dir := t.TempDir()
		acc := NewAccumulator(NewMemGauge(1, dir), ColSrc, ColTrg)
		var frozen [accShards][]probeRow
		for round, order := 0, rng.Perm(len(uni)); len(order) > 0; round++ {
			take := min(len(order), 1+rng.Intn(len(uni)/3))
			for _, i := range order[:take] {
				if acc.addHashed(uni[i].row, uni[i].h) {
					sh := accShardOf(uni[i].h)
					frozen[sh] = append(frozen[sh], uni[i])
				}
			}
			order = order[take:]
			acc.EvictBelow(acc.Mark())
			for si := range acc.shards {
				checkRunOrder(t, acc, si, frozen[si])
			}
		}
		acc.Close()
		assertNoSpillFiles(t, dir)
	}
}

// checkRunOrder asserts that shard si's frozen run holds exactly rows, in
// comparator order.
func checkRunOrder(t *testing.T, acc *Accumulator, si int, rows []probeRow) {
	t.Helper()
	keys := make([]evictKey, len(rows))
	for i, r := range rows {
		keys[i] = evictKey{r.h, int32(i)}
	}
	want := comparatorOrder(keys, func(i int32) []Value { return rows[i].row })
	sh := &acc.shards[si]
	if sh.run == nil {
		if len(rows) > 0 {
			t.Fatalf("shard %d: no run, %d rows frozen", si, len(rows))
		}
		return
	}
	sc := &runScanner{r: sh.run.run}
	for j, k := range want {
		rec := sc.next()
		if rec == nil {
			t.Fatalf("shard %d: run ends at record %d, %d rows frozen", si, j, len(rows))
		}
		if uint64(rec[0]) != k.h || !rowsEqual(rec[1:], rows[k.i].row) {
			t.Fatalf("shard %d record %d: %v, comparator order has %#x %v", si, j, rec, k.h, rows[k.i].row)
		}
	}
	if sc.next() != nil {
		t.Fatalf("shard %d: run holds more than its %d frozen rows", si, len(rows))
	}
}

// gaugeTotals is what a gauge reports at a quiescent point.
type gaugeTotals struct {
	used, peak, spills, spilled, reads, readBytes int64
}

func totalsOf(g *MemGauge) gaugeTotals {
	return gaugeTotals{g.Used(), g.Peak(), g.Spills(), g.SpilledBytes(), g.SpillReads(), g.SpillReadBytes()}
}

// TestBatchedAccountingMatchesPerRow feeds the same phases of rows — many
// of them already frozen, many repeated within a phase — through per-row
// Add on one accumulator and through four concurrent Absorbers on
// another, each under a child of its own parent gauge, and evicts at the
// end of every phase, as a fixpoint step does. Each phase's inserts must
// note one spill read per attempt at a frozen row on both; at every
// quiescent point both children, and both parents, must report the same
// used and peak bytes, spills, spilled bytes, spill reads and read bytes;
// and after Close nothing is left charged.
func TestBatchedAccountingMatchesPerRow(t *testing.T) {
	const (
		phases  = 10
		perRow  = 3000
		budget  = 2000 * 28 // about 2000 in-memory binary rows
		workers = 4
	)
	dir := t.TempDir()
	parentA, parentB := NewMemGauge(budget, dir), NewMemGauge(budget, dir)
	childA, childB := NewMemGaugeChild(parentA), NewMemGaugeChild(parentB)
	perRowAcc := NewAccumulator(childA, ColSrc, ColTrg)
	batched := NewAccumulator(childB, ColSrc, ColTrg)
	rng := rand.New(rand.NewSource(11))
	evictions := 0
	type pair [2]Value
	seen, frozen := map[pair]bool{}, map[pair]bool{}
	for p := 0; p < phases; p++ {
		// Half the phase revisits rows of earlier phases, which are frozen
		// by now; the rest is drawn from this phase's range, with repeats.
		rows := make([][]Value, perRow)
		for i := range rows {
			q := p
			if p > 0 && i%2 == 0 {
				q = rng.Intn(p)
			}
			rows[i] = []Value{Value(q), Value(rng.Intn(2000))}
		}
		// Every attempt at a frozen row is one filter-hit probe of one
		// 24-byte record; no other row of this seed passes a filter.
		wantReads := int64(0)
		for _, row := range rows {
			if frozen[pair(row)] {
				wantReads++
			}
			seen[pair(row)] = true
		}
		beforeA, beforeB := totalsOf(childA), totalsOf(childB)
		addedA := 0
		for _, row := range rows {
			if perRowAcc.Add(row) {
				addedA++
			}
		}
		var addedB [workers]int
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ab := batched.Absorber()
				part := rows[w*perRow/workers : (w+1)*perRow/workers]
				for lo := 0; lo < len(part); lo += 256 {
					addedB[w] += ab.AbsorbBatch(BatchFromRows(2, part[lo:min(lo+256, len(part))]))
				}
			}(w)
		}
		wg.Wait()
		if sum := addedB[0] + addedB[1] + addedB[2] + addedB[3]; sum != addedA {
			t.Fatalf("phase %d: Add reported %d new rows, the Absorbers %d", p, addedA, sum)
		}
		for _, g := range []struct {
			now, before gaugeTotals
		}{{totalsOf(childA), beforeA}, {totalsOf(childB), beforeB}} {
			if reads, bytes := g.now.reads-g.before.reads, g.now.readBytes-g.before.readBytes; reads != wantReads || bytes != 24*wantReads {
				t.Fatalf("phase %d: inserts noted %d spill reads of %d bytes, %d attempts hit frozen rows", p, reads, bytes, wantReads)
			}
		}
		a, b := perRowAcc.EvictBelow(perRowAcc.Mark()), batched.EvictBelow(batched.Mark())
		if a != b {
			t.Fatalf("phase %d: per-row accumulator evicted %d rows, batched %d", p, a, b)
		}
		if a > 0 {
			evictions++
			for row := range seen {
				frozen[row] = true
			}
		}
		for _, g := range [][2]*MemGauge{{childA, childB}, {parentA, parentB}} {
			if ta, tb := totalsOf(g[0]), totalsOf(g[1]); ta != tb {
				t.Fatalf("phase %d: per-row gauge %+v, batched gauge %+v", p, ta, tb)
			}
		}
	}
	if evictions < 2 || evictions == phases || childA.SpillReads() == 0 {
		t.Fatalf("%d of %d phases evicted, %d spill reads: the budget does not exercise the spill path", evictions, phases, childA.SpillReads())
	}
	perRowAcc.Close()
	batched.Close()
	for _, g := range []*MemGauge{childA, childB, parentA, parentB} {
		if g.Used() != 0 {
			t.Fatalf("gauge still holds %d bytes after Close", g.Used())
		}
	}
	assertNoSpillFiles(t, dir)
}
