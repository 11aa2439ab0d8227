package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the fixpoint accumulator: the relation X of
// Algorithm 1 kept sharded for the entire semi-naive iteration instead of
// being re-merged into a Relation at every step. Workers insert produced
// tuples concurrently (membership test and insertion fused under one shard
// lock, so X = X ∪ new and new = φ(new) \ X are a single operation), the
// rows each iteration appends to a shard ARE the next delta (exposed as
// zero-copy per-segment views between two marks), and a Relation is
// materialized exactly once, at fixpoint exit. The sequential merge barrier
// of the earlier design (ShardedSet.AppendTo after every parallel drain) is
// gone; the price is insertion-order determinism, so every consumer of a
// fixpoint result must compare order-insensitively (SameRows / Equal).
//
// Under a memory budget (a non-nil gauge) the accumulator degrades
// to disk instead of OOMing: EvictBelow freezes each shard's already-
// consumed prefix into a sorted on-disk run, keeping only a 32-bit
// fingerprint per frozen row in memory. The fingerprints are stored in run
// order, so the filter lookup that answers "may contain" also yields the
// record's position: a membership probe that passes the filter compares
// those records in place on the run's mapping. Deltas keep streaming
// zero-copy because eviction never moves rows above the watermark the
// caller passes. See ARCHITECTURE.md, "Memory governance".

// accShards is the shard count of an Accumulator. 32 shards keep lock
// contention negligible for worker pools up to a few dozen goroutines
// while the per-shard fixed cost stays trivial.
const (
	accShardBits = 5
	accShards    = 1 << accShardBits
)

// accShard is one lock-striped shard: a tupleSet over its own segmented
// row store, plus the per-row hashes in insertion order so an eviction
// sorts and rebuilds without rehashing. segs/set cover only the in-memory
// rows [frozen, n) — in-memory row i is shard row frozen+i; rows below
// frozen live in the shard's sorted run.
type accShard struct {
	mu     sync.Mutex
	set    tupleSet
	segs   accStore
	n      int     // logical row count, including frozen rows
	frozen int     // rows evicted to the run (a prefix of the shard)
	run    *accRun // the frozen rows; nil until the first eviction
	// pad the shard to whole cache lines (2 × 64 bytes) so neighboring
	// shard locks do not false-share.
	_ [40]byte
}

// accSegBits sizes a shard's store segments: segment k holds
// 2^(accSegBits+k) rows, so a shard of m rows spans about log2(m/64)
// segments. A segment is allocated once, at full size, and never
// reallocated or copied — each stored byte is written once, and the
// in-memory rows stay where delta views saw them.
const accSegBits = 6

// accStore is a shard's in-memory row store, a list of segments.
type accStore []accSeg

// accSeg is one segment of a shard's store: its rows, row-major, and
// their hashes.
type accSeg struct {
	vals   []Value
	hashes []uint64
}

// segOf maps an in-memory row index to its segment and its offset there.
func segOf(i int) (k, off int) {
	q := i + 1<<accSegBits
	k = bits.Len(uint(q)) - accSegBits - 1
	return k, q - 1<<(accSegBits+k)
}

// row returns a view of in-memory row i.
func (st accStore) row(i, arity int) []Value {
	k, off := segOf(i)
	return st[k].vals[off*arity : (off+1)*arity : (off+1)*arity]
}

// hash returns the stored hash of in-memory row i.
func (st accStore) hash(i int) uint64 {
	k, off := segOf(i)
	return st[k].hashes[off]
}

// push stores a row with its hash as the next in-memory row, opening the
// next segment when the last one is full, and returns the row's in-memory
// index.
func (sh *accShard) push(row []Value, h uint64) int {
	i := sh.n - sh.frozen
	k, off := segOf(i)
	if k == len(sh.segs) {
		rows := 1 << (accSegBits + k)
		sh.segs = append(sh.segs, accSeg{vals: make([]Value, rows*len(row)), hashes: make([]uint64, rows)})
	}
	seg := &sh.segs[k]
	copy(seg.vals[off*len(row):], row)
	seg.hashes[off] = h
	sh.n++
	return i
}

// lookup probes the shard's in-memory set for a row with hash h.
func (sh *accShard) lookup(h uint64, row []Value) (slot int, found bool) {
	return sh.set.find(h, func(i int) bool { return rowsEqual(sh.segs.row(i, len(row)), row) })
}

// forSegs calls f on each stretch of in-memory rows [lo, hi) that lies in
// one segment, in order, with the stretch's values.
func (sh *accShard) forSegs(lo, hi, arity int, f func(vals []Value, n int)) {
	for lo < hi {
		k, off := segOf(lo)
		n := min(hi-lo, 1<<(accSegBits+k)-off)
		f(sh.segs[k].vals[off*arity:(off+n)*arity:(off+n)*arity], n)
		lo += n
	}
}

// accRun is a shard's frozen rows on disk: records of [rowHash,
// values...] sorted by (hash, values), plus the in-memory fingerprint
// filter — fps[i] is the fingerprint of record i. Every eviction
// *compacts*: the previous run is merged with the newly frozen rows into
// one fresh run, so a shard holds at most one run no matter how many
// eviction rounds a long fixpoint goes through, and a membership miss
// consults at most one filter.
type accRun struct {
	run *spillRun
	fps []uint32
}

// runFpShift positions the fingerprint of a frozen row: the 32 hash bits
// directly below the accShardBits routing bits (bits 27–58). All rows of a
// shard agree on the routing bits, so within a run — sorted by the full
// hash — the fingerprints are non-decreasing: the filter is stored in run
// order, needs no sort of its own, and an index into it is a record
// position. The fingerprint bits are disjoint from the routing bits, so
// the per-probe false-positive rate stays about n/2^32 for a run of n rows
// (documented in ARCHITECTURE.md).
const runFpShift = 64 - accShardBits - 32

func runFingerprint(h uint64) uint32 { return uint32(h >> runFpShift) }

// locate is THE membership probe of a frozen run, shared by Add and Has:
// a binary search of the in-memory filter finds the range of records
// whose fingerprint equals the row's — empty means definitely absent, and
// is answered without touching the run — and that range (almost always a
// single record) is compared by hash and values in place on the run's
// mapping. A probe allocates nothing and makes no system call. The run
// access is added to t for its owner to note once the shard lock is
// released. Safe on a nil run (a shard never evicted).
func (r *accRun) locate(h uint64, row []Value, t *readTally) bool {
	if r == nil {
		return false
	}
	fp := runFingerprint(h)
	lo, hit := slices.BinarySearch(r.fps, fp) // earliest record carrying fp
	if !hit {
		return false
	}
	hi := lo + 1
	for hi < len(r.fps) && r.fps[hi] == fp {
		hi++
	}
	found, n := r.run.holds(lo, hi, Value(h), row)
	t.reads++
	t.bytes += n
	return found
}

// readTally counts the frozen-run accesses made under one acquisition of a
// shard lock and the bytes they covered, noted on the gauge once the lock
// is released.
type readTally struct{ reads, bytes int64 }

// runScanner streams a finished run's records in order, decoding them
// from the mapping a chunk at a time. Single-owner.
type runScanner struct {
	r     *spillRun
	pos   int
	chunk []Value
	lo    int // records [lo, hi) of the run are decoded in chunk
	hi    int
}

const runScanChunk = 2048

// reset points the scanner at the start of another run, keeping its
// buffer.
func (s *runScanner) reset(r *spillRun) {
	s.r, s.pos, s.lo, s.hi = r, 0, 0, 0
}

// next returns a view of the next record, or nil at end of run.
func (s *runScanner) next() []Value {
	if s.pos >= s.r.records() {
		return nil
	}
	if s.pos >= s.hi {
		s.lo = s.pos
		s.hi = s.lo + runScanChunk
		if n := s.r.records(); s.hi > n {
			s.hi = n
		}
		if cap(s.chunk) < (s.hi-s.lo)*s.r.recVals {
			s.chunk = make([]Value, runScanChunk*s.r.recVals)
		}
		s.r.readRange(s.lo, s.hi, s.chunk[:(s.hi-s.lo)*s.r.recVals])
	}
	at := (s.pos - s.lo) * s.r.recVals
	s.pos++
	return s.chunk[at : at+s.r.recVals : at+s.r.recVals]
}

// accShardOf routes a row hash to its shard. The top bits are used so the
// routing stays uncorrelated with the tupleSet probes (low bits) and the
// JoinIndex shard routing.
func accShardOf(h uint64) uint64 { return h >> (64 - accShardBits) }

// AccMark is a per-shard row-count watermark of an Accumulator: the rows
// appended between two marks are one fixpoint delta. The zero value marks
// the empty accumulator.
type AccMark [accShards]int

// Accumulator is the concurrency-safe fixpoint accumulator: a set of rows
// over a fixed schema, sharded by the top bits of the row hash across
// accShards lock-striped tupleSet shards. Add fuses the membership probe
// and the insertion under the shard lock, so concurrent producers can grow
// X while other goroutines probe it — the cross-iteration replacement for
// filtering against a read-only accumulator Relation and merging a side
// set afterwards.
//
// Concurrency: Add/Has/Absorb*/Len/Mark/DeltaViews and EvictBelow are
// safe for concurrent use (per-shard locks);
// Materialize and Close must not race with any of them.
type Accumulator struct {
	cols    []string
	arity   int
	gauge   *MemGauge
	charged atomic.Int64 // bytes currently charged to the gauge
	shards  [accShards]accShard
}

// NewAccumulator returns an empty accumulator over the given columns
// (sorted, like NewRelation; duplicates panic), governed by the memory
// gauge g: the accumulator charges g as it grows (AccRowBytes per row) and
// EvictBelow freezes shards to disk once g is over budget. A nil
// gauge means unbudgeted: it never spills and charges nothing.
func NewAccumulator(g *MemGauge, cols ...string) *Accumulator {
	sorted := SortCols(cols)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			panic(fmt.Sprintf("core: duplicate column %q in schema", sorted[i]))
		}
	}
	return &Accumulator{cols: sorted, arity: len(sorted), gauge: g}
}

// charge accounts n more bytes of accumulator-owned memory to the gauge.
func (a *Accumulator) charge(n int64) {
	if a.gauge != nil {
		a.charged.Add(n)
		a.gauge.Charge(n)
	}
}

// release returns n bytes of accounting to the gauge.
func (a *Accumulator) release(n int64) {
	if a.gauge != nil {
		a.charged.Add(-n)
		a.gauge.Release(n)
	}
}

// Cols returns the accumulator's schema (sorted). The returned slice must
// not be modified.
func (a *Accumulator) Cols() []string { return a.cols }

// Arity returns the number of columns.
func (a *Accumulator) Arity() int { return a.arity }

// addHashed inserts a row with a precomputed hash into its shard, fusing
// the membership probe and the insertion under the shard lock. Safe for
// concurrent use.
func (a *Accumulator) addHashed(row []Value, h uint64) bool {
	sh := &a.shards[accShardOf(h)]
	var t readTally
	sh.mu.Lock()
	added := a.addLocked(sh, row, h, &t)
	sh.mu.Unlock()
	if added {
		a.charge(AccRowBytes(a.arity))
	}
	a.gauge.noteSpillReads(t.reads, t.bytes)
	return added
}

// addLocked is the insertion body of one shard (its lock held by the
// caller): probe the in-memory set, then — only when absent there — the
// frozen run (its filter and, on a filter hit, the records it points at),
// then append. It charges nothing: the caller charges for the rows it
// added once the lock is released, and notes the run accesses t tallies.
func (a *Accumulator) addLocked(sh *accShard, row []Value, h uint64, t *readTally) bool {
	sh.set.growFor(sh.n - sh.frozen + 1)
	slot, found := sh.lookup(h, row)
	if found || sh.run.locate(h, row, t) {
		return false
	}
	sh.set.claim(slot, h, int32(sh.push(row, h)+1))
	return true
}

// Add inserts a row (copying its values), returning true if it was new.
// Safe for concurrent use.
func (a *Accumulator) Add(row []Value) bool {
	return a.addHashed(row, HashValues(row))
}

// Has reports whether the accumulator contains the row, consulting the
// in-memory shard first and then the frozen run (fingerprint filter, then
// the records it points at). Safe for concurrent use with Add and
// EvictBelow (the probe takes the shard lock).
func (a *Accumulator) Has(row []Value) bool {
	return a.hasHashed(row, HashValues(row))
}

// hasHashed is Has with a precomputed hash.
func (a *Accumulator) hasHashed(row []Value, h uint64) bool {
	sh := &a.shards[accShardOf(h)]
	var t readTally
	sh.mu.Lock()
	_, found := sh.lookup(h, row)
	found = found || sh.run.locate(h, row, &t)
	sh.mu.Unlock()
	a.gauge.noteSpillReads(t.reads, t.bytes)
	return found
}

// Len returns the number of distinct rows accumulated. Under concurrent
// insertion it is a momentary snapshot (per-shard consistent).
func (a *Accumulator) Len() int {
	n := 0
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// Mark snapshots the per-shard watermarks. Each shard's count is read
// under its lock, so every row below the mark is fully published: a view
// between two marks is safe to scan even while later Adds proceed. The
// snapshot is not atomic across shards; callers that need an exact global
// cut (the fixpoint's iteration barrier) must call it at a quiescent
// point.
func (a *Accumulator) Mark() AccMark {
	var m AccMark
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		m[i] = sh.n
		sh.mu.Unlock()
	}
	return m
}

// DeltaRows returns how many rows lie between two marks.
func DeltaRows(from, to AccMark) int {
	n := 0
	for i := range from {
		n += to[i] - from[i]
	}
	return n
}

// DeltaViews returns read-only zero-copy Relation views of the rows
// appended between two marks, one per store segment each non-empty shard
// window touches — the next iteration's delta streaming straight out of
// the shards. Views stay valid while later rows are inserted concurrently
// and across evictions: a segment never moves and its rows below the mark
// are immutable (later rows land past the views' capacity or in later
// segments; an eviction moves survivors into fresh segments), and the
// segment headers are read under the shard locks.
func (a *Accumulator) DeltaViews(from, to AccMark) []*Relation {
	var out []*Relation
	for i := range a.shards {
		lo, hi := from[i], to[i]
		if lo == hi {
			continue
		}
		sh := &a.shards[i]
		sh.mu.Lock()
		base := sh.frozen
		if lo < base {
			sh.mu.Unlock()
			panic(fmt.Sprintf("core: delta window [%d,%d) overlaps rows evicted below %d", lo, hi, base))
		}
		sh.forSegs(lo-base, hi-base, a.arity, func(vals []Value, n int) {
			out = append(out, newView(a.cols, vals, n))
		})
		sh.mu.Unlock()
	}
	return out
}

// EvictBelow freezes, in every shard, the rows below the given watermark
// into a sorted on-disk run — the accumulator's spill path. It is a no-op
// unless the accumulator's gauge is over budget. Rows at or above mark are
// never touched, so delta windows taken at or after mark stay valid
// (fixpoint loops pass the watermark of the last fully consumed delta).
// Frozen rows keep a 32-bit fingerprint in memory; everything else moves
// to disk, all of a round's runs into one spill file (one extent per
// shard). Returns the number of rows evicted. Safe for concurrent use
// with Add/Has (per-shard locks).
func (a *Accumulator) EvictBelow(mark AccMark) int {
	if a.gauge == nil || !a.gauge.Over() {
		return 0
	}
	round := evictRound{seg: spillSegment{gauge: a.gauge}}
	defer round.seg.close()
	evicted := 0
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		evicted += a.evictShardLocked(sh, mark[i], &round)
		sh.mu.Unlock()
	}
	return evicted
}

// evictRound is what one EvictBelow call shares across the shards it
// freezes: the round's segment file, and the sort and merge scratch.
type evictRound struct {
	seg  spillSegment
	keys []evictKey
	tmp  []evictKey // the radix sort's other buffer
	sc   runScanner
}

// evictKey is one row of an eviction sort: its hash and its position in
// the shard's in-memory store.
type evictKey struct {
	h uint64
	i int32
}

// sortEvictKeys orders keys by (hash, row values), the run order, and
// returns them sorted in keys or in tmp (len(tmp) >= len(keys)). The hash
// order is an LSD radix sort, 8 bits a pass, that skips a pass whose digit
// is the same for every key: a shard's keys share their routing bits, so
// a small round skips the top pass. Each run of equal hashes — distinct
// rows by construction, and rare — is then ordered by lessRows.
func sortEvictKeys(keys, tmp []evictKey, rowOf func(int32) []Value) []evictKey {
	n := len(keys)
	if n < 2 {
		return keys
	}
	var count [8][256]int32 // per digit, then per digit value
	for _, k := range keys {
		h := k.h
		count[0][byte(h)]++
		count[1][byte(h>>8)]++
		count[2][byte(h>>16)]++
		count[3][byte(h>>24)]++
		count[4][byte(h>>32)]++
		count[5][byte(h>>40)]++
		count[6][byte(h>>48)]++
		count[7][byte(h>>56)]++
	}
	src, dst := keys, tmp[:n]
	for d := range count {
		c := &count[d]
		shift := 8 * d
		if c[byte(src[0].h>>shift)] == int32(n) {
			continue
		}
		at := int32(0)
		for b, m := range c {
			c[b] = at
			at += m
		}
		for _, k := range src {
			b := byte(k.h >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && src[hi].h == src[lo].h {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(src[lo:hi], func(x, y evictKey) int {
				if lessRows(rowOf(x.i), rowOf(y.i)) {
					return -1
				}
				return 1
			})
		}
		lo = hi
	}
	return src
}

// evictShardLocked freezes the shard's in-memory prefix below upTo (shard
// lock held): the rows are sorted by (hash, values) and merged with the
// shard's existing run — if any — into one fresh compacted run, an extent
// of the round's segment, so a shard never holds more than one run however
// many eviction rounds pass. The filter is written in the same pass, in
// run order. The surviving suffix is compacted into *fresh* segments so
// outstanding zero-copy views of rows at or above upTo keep aliasing the
// old ones.
func (a *Accumulator) evictShardLocked(sh *accShard, upTo int, round *evictRound) int {
	k := upTo - sh.frozen
	if k <= 0 {
		return 0
	}
	arity := a.arity
	segs, live := sh.segs, sh.n-sh.frozen
	rowOf := func(i int32) []Value { return segs.row(int(i), arity) }
	round.keys = slices.Grow(round.keys[:0], k)[:k]
	round.tmp = slices.Grow(round.tmp[:0], k)[:k]
	keys := round.keys
	for i := range keys {
		keys[i] = evictKey{segs.hash(i), int32(i)}
	}
	keys = sortEvictKeys(keys, round.tmp, rowOf)
	old := sh.run
	total := k
	if old != nil {
		total += old.run.records()
	}
	// The extent is sized exactly: the two merge inputs are disjoint by
	// construction (a row is only appended after the run was probed), so
	// the merge is pure, no dedup.
	merged, err := round.seg.extent(1+arity, total)
	if err != nil {
		panic(err)
	}
	fps := make([]uint32, 0, total)
	rec := make([]Value, 1+arity)
	write := func(rec []Value) {
		if err := merged.append(rec); err != nil {
			panic(err)
		}
		fps = append(fps, runFingerprint(uint64(rec[0])))
	}
	var orec []Value
	sc := &round.sc
	if old != nil {
		sc.reset(old.run)
		orec = sc.next()
	}
	for ni := 0; orec != nil || ni < k; {
		useOld := orec != nil
		if useOld && ni < k {
			key := keys[ni]
			oh := uint64(orec[0])
			if oh > key.h || (oh == key.h && lessRows(rowOf(key.i), orec[1:])) {
				useOld = false
			}
		}
		if useOld {
			write(orec)
			orec = sc.next()
		} else {
			rec[0] = Value(keys[ni].h)
			copy(rec[1:], rowOf(keys[ni].i))
			write(rec)
			ni++
		}
	}
	if err := merged.finish(); err != nil {
		panic(err)
	}
	if merged.records() != total {
		panic(fmt.Sprintf("core: compacted run holds %d records, its extent was sized for %d", merged.records(), total))
	}
	if old != nil {
		old.run.Close()
	}
	sh.run = &accRun{run: merged, fps: fps}
	// Compact the surviving suffix into fresh segments and rebuild the set
	// over it (rows are known distinct, so fresh-slot inserts suffice).
	sh.segs, sh.n, sh.frozen = nil, upTo, upTo
	sh.set = tupleSet{}
	sh.set.reserve(live - k)
	for i := k; i < live; i++ {
		h := segs.hash(i)
		sh.set.insertFresh(h, int32(sh.push(segs.row(i, arity), h)+1))
	}
	a.release(AccRowBytes(arity) * int64(k))
	a.charge(runFingerprintBytes * int64(k))
	// Compaction rewrites the previous run, so this counts bytes actually
	// written this round, not just the newly frozen rows.
	a.gauge.noteSpill(merged.bytes)
	return k
}

// Runs returns how many on-disk runs the accumulator holds: at most one
// per shard (every eviction compacts), so a probe consults at most one
// filter. Runs share files — one per eviction round that still has a live
// run — so open descriptors are bounded by the rounds, not the runs. Safe
// for concurrent use.
func (a *Accumulator) Runs() int {
	n := 0
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		if sh.run != nil {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// Frozen returns how many rows currently live in on-disk runs, summed over
// shards. Safe for concurrent use.
func (a *Accumulator) Frozen() int {
	n := 0
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		n += sh.frozen
		sh.mu.Unlock()
	}
	return n
}

// Close releases the accumulator's spill runs and returns its gauge
// charges. The accumulator must not be used afterwards. It must not race
// with other methods; calling it more than once is harmless.
func (a *Accumulator) Close() {
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		if sh.run != nil {
			sh.run.run.Close()
			sh.run = nil
		}
		sh.mu.Unlock()
	}
	if c := a.charged.Swap(0); c != 0 && a.gauge != nil {
		a.gauge.Release(c)
	}
}

// Absorb inserts every row of r (set semantics) and returns the number of
// rows that were new. It is the accumulator's bulk seed path.
func (a *Accumulator) Absorb(r *Relation) int {
	var ad accAdder
	return ad.addBatch(a, r.AsBatch())
}

// Absorber is a reusable batched-insert handle onto one accumulator: the
// per-batch hashing/routing scratch lives on the handle instead of being
// reallocated per call. One Absorber serves one goroutine; any number of
// Absorbers may feed the same accumulator concurrently.
type Absorber struct {
	a  *Accumulator
	ad accAdder
}

// Absorber returns a fresh absorb handle for this accumulator.
func (a *Accumulator) Absorber() *Absorber { return &Absorber{a: a} }

// AbsorbBatch inserts every row of b and returns how many were new.
func (ab *Absorber) AbsorbBatch(b *Batch) int {
	if b == nil {
		return 0
	}
	return ab.ad.addBatch(ab.a, b)
}

// Scan hands f the accumulated rows, a stretch at a time, as read-only
// batches: each shard's frozen run decoded a chunk of runScanChunk rows at
// a time into one buffer reused for every chunk, then its in-memory store
// as one zero-copy view per segment. A batch is valid only until f
// returns; f must copy what it keeps. Runs and shards are mutually
// disjoint sets by construction, so the stretches together are a set and
// nothing is hashed or probed. Scan stops at f's first error and returns
// it. Like Materialize it reads the shards one after another and must not
// race with Add or EvictBelow.
func (a *Accumulator) Scan(f func(*Batch) error) error {
	arity := a.arity
	var (
		sc    runScanner
		block []Value
		rows  int
	)
	flush := func() error {
		if rows == 0 {
			return nil
		}
		err := f(NewBatchValues(arity, rows, block))
		block, rows = block[:0], 0
		return err
	}
	for i := range a.shards {
		sh := &a.shards[i]
		if sh.run != nil {
			if block == nil {
				block = make([]Value, 0, runScanChunk*arity)
			}
			sc.reset(sh.run.run)
			for rec := sc.next(); rec != nil; rec = sc.next() {
				block = append(block, rec[1:]...)
				if rows++; rows >= runScanChunk {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			if err := flush(); err != nil {
				return err
			}
		}
		var err error
		sh.forSegs(0, sh.n-sh.frozen, arity, func(vals []Value, n int) {
			if err == nil {
				err = f(NewBatchValues(arity, n, vals))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Materialize copies the accumulated rows into one Relation sized from the
// shards' row counts, in Scan's order. The stretches are disjoint sets, so
// they are appended and the result's dedup set is deferred to whoever first
// asks for it. It must not race with Add or EvictBelow.
func (a *Accumulator) Materialize() *Relation {
	out := NewRelation(a.cols...)
	out.ReserveRows(a.Len())
	_ = a.Scan(func(b *Batch) error { // f never fails, so neither does Scan
		out.AppendDistinct(b)
		return nil
	})
	return out
}

// accAdder is the per-worker scratch state of a batched accumulator
// insert: hashes, shard routing and a counting-sort grouping of the
// batch's rows, reused across batches so a shard's lock is taken once per
// batch instead of once per row.
type accAdder struct {
	hashes []uint64
	shard  []uint8
	order  []int32 // row indices grouped by shard
	start  [accShards + 1]int32
	// The routed insert (more than one destination) groups rows by bucket
	// = owner<<accShardBits | shard instead: the bucket of each row and the
	// buckets' boundaries in order.
	bucket []int32
	bstart []int32
}

// grow sizes the per-row scratch for a batch of n rows.
func (ad *accAdder) grow(n int) {
	if cap(ad.hashes) < n {
		ad.hashes = make([]uint64, n)
		ad.shard = make([]uint8, n)
		ad.order = make([]int32, n)
	}
}

// addBatch inserts a batch's rows into the accumulator: the hash and
// shard-routing work happens lock-free, then each shard that received rows
// is locked exactly once, with the membership probe and insertion fused
// under that lock.
func (ad *accAdder) addBatch(a *Accumulator, b *Batch) int {
	n := b.Len()
	if n == 0 {
		return 0
	}
	ad.grow(n)
	// Pass 1 (lock-free): hash and route to a shard.
	var count [accShards]int32
	for i := 0; i < n; i++ {
		h := HashValues(b.Row(i))
		sh := uint8(accShardOf(h))
		ad.hashes[i] = h
		ad.shard[i] = sh
		count[sh]++
	}
	// Counting sort the rows by shard.
	ad.start[0] = 0
	for sh := 0; sh < accShards; sh++ {
		ad.start[sh+1] = ad.start[sh] + count[sh]
	}
	fill := ad.start
	for i := 0; i < n; i++ {
		sh := ad.shard[i]
		ad.order[fill[sh]] = int32(i)
		fill[sh]++
	}
	// Pass 2: one lock per non-empty shard, probe+insert fused.
	added := 0
	for sh := 0; sh < accShards; sh++ {
		if lo, hi := ad.start[sh], ad.start[sh+1]; lo < hi {
			added += ad.insertShard(a, sh, b, ad.order[lo:hi])
		}
	}
	return added
}

// insertShard inserts the given rows of b, all routed to shard sh of a,
// under one acquisition of the shard's lock, and returns how many were
// new. The batch's gauge charge and its filter-hit reads are settled once,
// after the lock is released: the gauge is only consulted for eviction at
// EvictBelow, between batches, so every total it reports there is the one
// per-row charging left.
func (ad *accAdder) insertShard(a *Accumulator, sh int, b *Batch, rows []int32) int {
	shd := &a.shards[sh]
	added := 0
	var t readTally
	shd.mu.Lock()
	for _, ri := range rows {
		if a.addLocked(shd, b.Row(int(ri)), ad.hashes[ri], &t) {
			added++
		}
	}
	shd.mu.Unlock()
	if added > 0 {
		a.charge(AccRowBytes(a.arity) * int64(added))
	}
	a.gauge.noteSpillReads(t.reads, t.bytes)
	return added
}

// routeBatch inserts every row of b into the accumulator of its owner,
// dst[Owner(h, len(dst))], and returns how many rows were new to
// dst[self]. One hash per row picks both the owner and the shard there.
// With a single destination it is addBatch: no owner is computed and the
// grouping stays one count per shard. With several, rows are grouped by
// (owner, shard), so each shard of each destination that receives rows is
// locked once per batch.
func (ad *accAdder) routeBatch(dst []*Accumulator, self int, b *Batch) int {
	if len(dst) == 1 {
		return ad.addBatch(dst[0], b)
	}
	n := b.Len()
	if n == 0 {
		return 0
	}
	ad.grow(n)
	if cap(ad.bucket) < n {
		ad.bucket = make([]int32, n)
	}
	buckets := len(dst) << accShardBits
	if cap(ad.bstart) < buckets+1 {
		ad.bstart = make([]int32, buckets+1)
	}
	start := ad.bstart[:buckets+1]
	clear(start)
	// Pass 1 (lock-free): hash, then route to an owner and a shard there;
	// start[k+1] counts bucket k.
	for i := 0; i < n; i++ {
		h := HashValues(b.Row(i))
		k := int32(Owner(h, len(dst))<<accShardBits) | int32(accShardOf(h))
		ad.hashes[i] = h
		ad.bucket[i] = k
		start[k+1]++
	}
	for k := 1; k <= buckets; k++ {
		start[k] += start[k-1]
	}
	// Counting sort the rows by bucket, filling each bucket from its
	// start; afterwards start[k] is bucket k's end, i.e. bucket k+1's
	// start, and bucket k spans [start[k-1], start[k]) (0 for k = 0).
	for i := 0; i < n; i++ {
		k := ad.bucket[i]
		ad.order[start[k]] = int32(i)
		start[k]++
	}
	// Pass 2: one lock per non-empty (owner, shard), probe+insert fused.
	added := 0
	lo := int32(0)
	for k := 0; k < buckets; k++ {
		hi := start[k]
		if lo == hi {
			continue
		}
		owner := k >> accShardBits
		got := ad.insertShard(dst[owner], k&(accShards-1), b, ad.order[lo:hi])
		if owner == self {
			added += got
		}
		lo = hi
	}
	return added
}
