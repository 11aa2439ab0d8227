package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// This file tests the frozen-run probe path of the budgeted Accumulator:
// the position-bearing fingerprint filter (one in-place compare on the
// mapped run per filter-hit probe) and the segment files (one spill file
// per eviction round). The read, descriptor and mapping bounds are
// asserted, not recorded.

// probeRow is a row with the hash the tests insert and probe it under.
type probeRow struct {
	row []Value
	h   uint64
}

// fingerprintTwins finds, once, three pairs of rows whose FNV hashes agree
// on the shard and fingerprint bits (the top 37) and differ below them: a
// birthday search over about a million rows.
var fingerprintTwins = sync.OnceValue(func() [][2]probeRow {
	var twins [][2]probeRow
	rowOf := func(i int) []Value { return []Value{Value(1_000_000 + i), Value(i ^ 0x9e37)} }
	first := map[uint64]int32{}
	for i := 0; len(twins) < 3 && i < 8<<20; i++ {
		h := HashValues(rowOf(i))
		j, seen := first[h>>runFpShift]
		if !seen {
			first[h>>runFpShift] = int32(i)
		} else if hj := HashValues(rowOf(int(j))); hj != h {
			twins = append(twins, [2]probeRow{{rowOf(int(j)), hj}, {rowOf(i), h}})
		}
	}
	return twins
})

// naturalUniverse is distinct rows under their own FNV hashes, the
// fingerprint twins among them.
func naturalUniverse(t *testing.T) []probeRow {
	var out []probeRow
	for i := 0; i < 600; i++ {
		r := []Value{Value(i), Value(i*7 + 1)}
		out = append(out, probeRow{r, HashValues(r)})
	}
	twins := fingerprintTwins()
	if len(twins) == 0 {
		t.Fatal("no two of 8M rows share a fingerprint within a shard: has the row hash or the fingerprint changed width?")
	}
	for _, tw := range twins {
		out = append(out, tw[0], tw[1])
	}
	return out
}

// engineeredUniverse is distinct rows filed under made-up hashes, standing
// in for collisions FNV would take 2^32 rows to produce: groups whose
// hashes agree on the shard and fingerprint bits and differ below them (a
// filter hit that must read the whole group and match exactly one record,
// or none), and groups that share one full hash and differ only in their
// values. Two groups of the first kind also contain pairs of the second,
// so one fingerprint range holds both sorts of neighbor. Every hashed entry
// point of the accumulator takes the hash from its caller, so a row is
// consistently filed under the same one.
func engineeredUniverse(rng *rand.Rand) []probeRow {
	var out []probeRow
	next := 10_000 // clear of the natural universe's values
	row := func() []Value {
		next++
		return []Value{Value(next), Value(next*7 + 1)}
	}
	const lowMask = 1<<runFpShift - 1
	for grp := 0; grp < 60; grp++ {
		top := rng.Uint64() &^ lowMask
		lows := map[uint64]bool{}
		for len(lows) < 4 {
			lows[rng.Uint64()&lowMask] = true
		}
		for low := range lows {
			out = append(out, probeRow{row(), top | low})
			if grp < 2 {
				out = append(out, probeRow{row(), top | low})
			}
		}
	}
	for grp := 0; grp < 60; grp++ {
		h := rng.Uint64()
		for i := 0; i < 3; i++ {
			out = append(out, probeRow{row(), h})
		}
	}
	return out
}

// checkRunLayout asserts the invariant the one-read probe rests on, for
// every frozen run: the filter has one entry per record, entry i is the
// fingerprint of record i, and the records are strictly ascending by
// (hash, values) within their shard — so filter order is run order, also
// after a compaction merged an older run in.
func checkRunLayout(t *testing.T, acc *Accumulator) {
	t.Helper()
	for si := range acc.shards {
		sh := &acc.shards[si]
		sh.mu.Lock()
		if sh.run != nil {
			if len(sh.run.fps) != sh.run.run.records() || sh.frozen != len(sh.run.fps) {
				t.Fatalf("shard %d: %d filter entries, %d records, %d rows frozen", si, len(sh.run.fps), sh.run.run.records(), sh.frozen)
			}
			sc := &runScanner{r: sh.run.run}
			var prev []Value
			for i := 0; ; i++ {
				rec := sc.next()
				if rec == nil {
					break
				}
				h := uint64(rec[0])
				if int(accShardOf(h)) != si {
					t.Fatalf("shard %d record %d routes to shard %d", si, i, accShardOf(h))
				}
				if sh.run.fps[i] != runFingerprint(h) {
					t.Fatalf("shard %d: filter entry %d is %#x, record %d has fingerprint %#x", si, i, sh.run.fps[i], i, runFingerprint(h))
				}
				if prev != nil {
					ph := uint64(prev[0])
					if ph > h || (ph == h && !lessRows(prev[1:], rec[1:])) {
						t.Fatalf("shard %d: record %d %v not above its predecessor %v", si, i, rec, prev)
					}
				}
				prev = append(prev[:0], rec...)
			}
		}
		sh.mu.Unlock()
	}
}

// checkAgainstReference compares Has, Len and Materialize with the map
// reference (live[i] reports whether uni[i] is present).
func checkAgainstReference(t *testing.T, acc *Accumulator, uni []probeRow, live map[int]bool) {
	t.Helper()
	want := NewRelation(acc.Cols()...)
	for i, r := range uni {
		if got := acc.hasHashed(r.row, r.h); got != live[i] {
			t.Fatalf("Has(%v, hash %#x) = %v, reference says %v", r.row, r.h, got, live[i])
		}
		if live[i] {
			want.Add(r.row)
		}
	}
	if acc.Len() != want.Len() {
		t.Fatalf("Len = %d, reference holds %d rows", acc.Len(), want.Len())
	}
	if got := acc.Materialize(); !SameRows(got, want) {
		t.Fatalf("Materialize returned %d rows, reference holds %d", got.Len(), want.Len())
	}
}

// TestSpillProbeMatchesReference is the property test of frozen-run
// membership: random Add / Has over the natural and the engineered
// universe, every answer checked against a map, with everything in memory
// frozen every few hundred operations — a dozen eviction rounds, each a
// compaction merge into the previous run.
func TestSpillProbeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		uni := engineeredUniverse(rng)
		if seed%2 == 1 {
			uni = naturalUniverse(t)
		}
		dir := t.TempDir()
		g := NewMemGauge(1, dir) // always over budget: EvictBelow at the mark freezes all
		acc := NewAccumulator(g, ColSrc, ColTrg)
		live := map[int]bool{}
		rounds := 0
		for step := 0; step < 6000; step++ {
			i := rng.Intn(len(uni))
			r := uni[i]
			if rng.Intn(10) < 5 {
				if got := acc.addHashed(r.row, r.h); got == live[i] {
					t.Fatalf("seed %d step %d: Add(%v) = %v with the row live=%v", seed, step, r.row, got, live[i])
				}
				live[i] = true
			} else if got := acc.hasHashed(r.row, r.h); got != live[i] {
				t.Fatalf("seed %d step %d: Has(%v) = %v with the row live=%v", seed, step, r.row, got, live[i])
			}
			if step%500 == 499 {
				if acc.EvictBelow(acc.Mark()) > 0 {
					rounds++
				}
				checkRunLayout(t, acc)
				checkAgainstReference(t, acc, uni, live)
			}
		}
		if rounds < 3 {
			t.Fatalf("seed %d: %d eviction rounds — the run never compacted", seed, rounds)
		}
		acc.Close()
		assertNoSpillFiles(t, dir)
	}
}

// TestSpillProbeConcurrentAdders is the -race half of the property test:
// several adders insert the whole universe in their own orders (so most
// inserts are duplicates of a row another adder got in first, many of them
// already frozen) and a prober asks for rows, while the main goroutine
// keeps freezing everything. Each row must be reported new exactly once.
func TestSpillProbeConcurrentAdders(t *testing.T) {
	uni := append(naturalUniverse(t), engineeredUniverse(rand.New(rand.NewSource(7)))...)
	g := NewMemGauge(1, t.TempDir())
	acc := NewAccumulator(g, ColSrc, ColTrg)
	defer acc.Close()
	const adders = 4
	var added atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < adders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(uni)) {
				if acc.addHashed(uni[i].row, uni[i].h) {
					added.Add(1)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := uni[i%len(uni)]
			acc.hasHashed(r.row, r.h)
		}
	}()
	addersDone := make(chan struct{})
	go func() { wg.Wait(); close(addersDone) }()
	for evicting := true; evicting; {
		select {
		case <-addersDone:
			evicting = false
		default:
			acc.EvictBelow(acc.Mark())
			runtime.Gosched()
		}
	}
	close(stop)
	<-probed
	acc.EvictBelow(acc.Mark())

	if int(added.Load()) != len(uni) {
		t.Fatalf("%d adds reported a new row, the universe has %d", added.Load(), len(uni))
	}
	live := map[int]bool{}
	for i := range uni {
		live[i] = true
	}
	checkRunLayout(t, acc)
	checkAgainstReference(t, acc, uni, live)
}

// spillFDs counts this process's open descriptors on (unlinked) files
// under dir, through /proc/self/fd; ok is false where that is unavailable.
func spillFDs(dir string) (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n, true
}

// spillMaps counts this process's memory mappings of (unlinked) files
// under dir, through /proc/self/maps; ok is false where that is
// unavailable.
func spillMaps(dir string) (n int, ok bool) {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 0, false
	}
	return strings.Count(string(maps), " "+dir+string(filepath.Separator)), true
}

// TestSpillProbeReadAndDescriptorBound asserts the bounds of the
// frozen-run layout instead of recording a slowdown: a membership probe
// that passes the filter costs exactly one run access, of exactly the
// fingerprint-equal records, whether Has or Add issued it — a binary
// search of the run would cost about ten per probe here — and an
// eviction round costs one file, so an accumulator holds at most one
// descriptor per round that still has a live run — a file per frozen
// shard would hold 32. Each live run is mapped once (the kernel may
// merge adjacent mappings of one file, hence at most), and Close unmaps
// them all.
func TestSpillProbeReadAndDescriptorBound(t *testing.T) {
	dir := t.TempDir()
	if _, ok := spillFDs(dir); !ok {
		t.Skip("/proc/self/fd is not available")
	}
	if _, ok := spillMaps(dir); !ok {
		t.Skip("/proc/self/maps is not available")
	}
	g := NewMemGauge(1, dir)
	acc := NewAccumulator(g, ColSrc, ColTrg)
	const rounds, perRound = 4, 4096
	rowOf := func(i int) []Value { return []Value{Value(i), Value(i ^ 0x5a5a)} }
	fds := func() int { n, _ := spillFDs(dir); return n }
	checkMaps := func(when string) {
		t.Helper()
		if n, _ := spillMaps(dir); n < 1 || n > acc.Runs() {
			t.Fatalf("%s: %d spill mappings for %d runs, want 1 to %d", when, n, acc.Runs(), acc.Runs())
		}
	}
	for r := 0; r < rounds; r++ {
		for i := r * perRound; i < (r+1)*perRound; i++ {
			acc.Add(rowOf(i))
		}
		if n := acc.EvictBelow(acc.Mark()); n != perRound {
			t.Fatalf("round %d froze %d rows, want %d", r, n, perRound)
		}
		// Every shard froze rows, so every older run was superseded and its
		// segment closed: all 32 runs live in this round's one file.
		if got := fds(); got != 1 || acc.Runs() != accShards {
			t.Fatalf("round %d: %d spill descriptors for %d runs, want 1 for %d", r, got, acc.Runs(), accShards)
		}
		if g.Spills() != int64(accShards*(r+1)) {
			t.Fatalf("round %d: %d spill events, want one per shard per round (%d)", r, g.Spills(), accShards*(r+1))
		}
		checkMaps(fmt.Sprintf("round %d", r))
	}
	assertNoSpillFiles(t, dir)
	checkRunLayout(t, acc)

	const n = rounds * perRound
	const recBytes = 3 * 8 // hash + two values
	probe := func(what string, wantReads int, f func(i int)) {
		t.Helper()
		reads, bytes := g.SpillReads(), g.SpillReadBytes()
		for i := 0; i < n; i++ {
			f(i)
		}
		reads, bytes = g.SpillReads()-reads, g.SpillReadBytes()-bytes
		if wantReads >= 0 && (reads != int64(wantReads) || bytes != reads*recBytes) {
			t.Fatalf("%s: %d probes issued %d reads of %d bytes, want %d reads of one %d-byte record each",
				what, n, reads, bytes, wantReads, recBytes)
		}
		if reads > n {
			t.Fatalf("%s: %d probes issued %d reads, want at most one per probe", what, n, reads)
		}
	}
	probe("Has on frozen rows", n, func(i int) {
		if !acc.Has(rowOf(i)) {
			t.Fatalf("frozen row %d lost", i)
		}
	})
	probe("Add of frozen rows", n, func(i int) {
		if acc.Add(rowOf(i)) {
			t.Fatalf("frozen row %d re-added as new", i)
		}
	})
	// Absent rows almost never pass the filter (n/2^32 per probe): they are
	// answered from memory.
	before := g.SpillReads()
	probe("Has on absent rows", -1, func(i int) {
		if acc.Has(rowOf(n + i)) {
			t.Fatalf("phantom row %d", n+i)
		}
	})
	if fp := g.SpillReads() - before; fp > n/100 {
		t.Fatalf("%d of %d absent-row probes reached disk; the filter is not filtering", fp, n)
	}

	// A round that freezes rows in only some shards leaves the other
	// shards' runs where they are: two rounds have live runs, two files.
	for i := 0; i < 3; i++ {
		acc.Add(rowOf(2*n + i))
	}
	if acc.EvictBelow(acc.Mark()) != 3 {
		t.Fatal("partial round did not freeze its three rows")
	}
	if got := fds(); got != 2 {
		t.Fatalf("%d spill descriptors after a full and a partial round, want 2", got)
	}
	checkMaps("partial round")
	acc.Close()
	if got := fds(); got != 0 {
		t.Fatalf("%d spill descriptors survive Close", got)
	}
	if got, _ := spillMaps(dir); got != 0 {
		t.Fatalf("%d spill mappings survive Close", got)
	}
	if g.Used() != 0 {
		t.Fatalf("gauge still holds %d bytes after Close", g.Used())
	}
}

// BenchmarkAccumulatorFrozenProbe measures the duplicate-insert probe
// against a fully frozen accumulator — the inner loop of a budgeted
// fixpoint, where most φ output is already in X.
func BenchmarkAccumulatorFrozenProbe(b *testing.B) {
	g := NewMemGauge(1, b.TempDir())
	acc := NewAccumulator(g, ColSrc, ColTrg)
	defer acc.Close()
	const n = 1 << 16
	for i := 0; i < n; i++ {
		acc.Add([]Value{Value(i), Value(i + 1)})
	}
	acc.EvictBelow(acc.Mark())
	row := make([]Value, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0], row[1] = Value(i%n), Value(i%n+1)
		if acc.Add(row) {
			b.Fatalf("frozen row %d re-added", i%n)
		}
	}
	b.ReportMetric(float64(g.SpillReads())/float64(b.N), "reads/op")
}
