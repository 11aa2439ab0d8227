package core

import "fmt"

// JoinIndex is a hash index over a column subset of a relation: key values
// → matching rows. It is the build side of every streaming hash join and
// antijoin in the engine, and the unit of reuse across semi-naive fixpoint
// iterations: a fixpoint builds the index over the constant part once and
// every delta iteration probes it, instead of re-hashing the constant
// relation per iteration (§III-D's "persistent indexes").
//
// The index addresses rows by offset into the indexed relation's flat
// row-major backing array (captured at build time), not by per-row
// slices: buckets map the 64-bit FNV-1a hash of the key values to row
// indices, and probes verify candidate rows value-wise, so hash collisions
// cannot produce wrong matches. Buckets are split across 1 or more
// hash-routed shards: a serial build uses a single shard, a parallel build
// has a worker pool populate per-shard sub-indexes independently — no
// locks, no merge — and probes route by the same hash bits. Probing is read-only and safe for concurrent use — the
// parallel fixpoint step probes one index from many goroutines.
type JoinIndex struct {
	keyCols []string // indexed columns (as given, relation-schema order)
	at      []int    // positions of keyCols in the indexed rows
	data    []Value  // flat row-major snapshot of the indexed rows
	arity   int
	nrows   int
	// shards holds the hash-partitioned bucket maps; len is a power of two
	// (1 for serially built indexes). shardShift routes a key hash to its
	// shard by top bits: shard = h >> shardShift (shift 64 ⇒ always 0).
	shards     []ixShard
	shardShift uint
	keys       int // number of distinct keys

	// gauge/memBytes account the index's in-memory footprint against the
	// task budget; Close returns the charge.
	gauge    *MemGauge
	memBytes int64
	// spill is non-nil for indexes built in the over-budget Grace-hash
	// mode: the build rows live hash-partitioned in on-disk runs and only
	// GraceJoinStream/GraceAntijoinStream may probe (random-access probes
	// panic). See ARCHITECTURE.md, "Memory governance".
	spill *joinSpill
}

// joinSpill is the on-disk half of a spilled JoinIndex: the build rows
// hash-partitioned by key into temp-file runs. Partitions are read-only
// after the build and safe for concurrent partition loads.
type joinSpill struct {
	parts []*spillRun // records: one build row (arity values) each
}

// ixShard is one bucket partition of a JoinIndex. During a parallel build
// each shard is owned by exactly one worker.
type ixShard struct {
	buckets map[uint64][]int32
	keys    int
}

// ixMaxShards bounds the shard count of a parallel build: enough to feed a
// few dozen workers, small enough that per-shard map overhead stays
// trivial.
const ixMaxShards = 16

// bucketFor returns the candidate row list for a key hash.
func (ix *JoinIndex) bucketFor(h uint64) []int32 {
	return ix.shards[h>>ix.shardShift].buckets[h]
}

// BuildJoinIndex indexes rel on keyCols. Every keyCol must be in rel's
// schema. The index snapshots rel's backing array: rows added to rel
// afterwards are not covered.
//
// The build-side work is spread over a bounded worker pool when the input
// is large enough to pay off (the ParallelPlan heuristic): the row hashes
// are computed in batch-granular chunks concurrently, then each bucket
// shard is populated by one worker scanning the hash array for its own top
// bits — per-shard sub-indexes built lock-free and probed shard-wise,
// never merged. maxWorkers 0 means DefaultParallelism, 1 forces the serial
// build.
//
// g is the memory gauge the index is governed by; nil means unbudgeted
// (never spills, charges nothing). When the index's estimated in-memory
// footprint (IndexRowBytes per row) fits the remaining budget, a normal
// in-memory index is built and its footprint charged to g; otherwise the
// build rows are hash-partitioned by key into on-disk runs (Grace-hash
// style) and the returned index is *spilled*: random-access probes panic,
// and joins must go through GraceJoinStream/GraceAntijoinStream, which
// probe one partition at a time so the transient in-memory sub-index stays
// bounded by roughly buildBytes/partitions.
func BuildJoinIndex(rel *Relation, keyCols []string, maxWorkers int, g *MemGauge) (*JoinIndex, error) {
	at := make([]int, len(keyCols))
	for i, c := range keyCols {
		idx := ColIndex(rel.Cols(), c)
		if idx < 0 {
			return nil, fmt.Errorf("core: index column %q not in schema %v", c, rel.Cols())
		}
		at[i] = idx
	}
	memNeed := int64(rel.Len()) * IndexRowBytes
	if g != nil && memNeed > spillIndexFloor && g.WouldExceed(memNeed) && len(keyCols) > 0 {
		return buildJoinIndexSpilled(rel, keyCols, at, g)
	}
	chunk, workers := ParallelPlan(rel.Len(), rel.Arity(), maxWorkers)
	var ix *JoinIndex
	if workers > 1 {
		ix = buildJoinIndexParallel(rel.Data(), rel.Arity(), rel.Len(), at, chunk, workers)
	} else {
		ix = buildJoinIndex(rel.Data(), rel.Arity(), rel.Len(), at)
	}
	ix.keyCols = keyCols
	if g != nil {
		ix.gauge = g
		ix.memBytes = memNeed
		g.Charge(memNeed)
	}
	return ix, nil
}

// spillPartition routes a row to its Grace partition — THE routing shared
// by the build side (buildJoinIndexSpilled, at = key positions in build
// rows) and the probe side (graceIter.prepare, at = key positions in
// probe rows). Key-equal rows land in the same partition on both sides
// because the hash reads only the key values.
func spillPartition(row []Value, at []int, nparts int) int {
	return int(HashValuesAt(row, at) % uint64(nparts))
}

// spillIndexFloor is the smallest index worth spilling: below it, Grace
// re-partitioning the (possibly huge) probe stream to disk costs far more
// than the few KiB the index would hold — a tiny delta-side index inside
// an over-budget fixpoint must stay in memory.
const spillIndexFloor = 4 << 10

// joinSpillParts sizes the partition count of a spilled build: enough
// partitions that one partition's in-memory sub-index fits about a quarter
// of the budget, clamped to [2, 64]. The per-row price matches what
// loadPartition will actually charge (partition data copy + buckets), so
// the sizing target and the runtime accounting agree.
func joinSpillParts(rows, arity int, budget int64) int {
	bytes := int64(rows) * (IndexRowBytes + int64(arity)*8)
	per := budget / 4
	if per <= 0 {
		per = 1
	}
	n := int(bytes/per) + 1
	if n < 2 {
		n = 2
	}
	if n > 64 {
		n = 64
	}
	return n
}

// buildJoinIndexSpilled writes rel's rows into key-hash partitioned runs.
func buildJoinIndexSpilled(rel *Relation, keyCols []string, at []int, g *MemGauge) (*JoinIndex, error) {
	nparts := joinSpillParts(rel.Len(), rel.Arity(), g.Budget())
	parts, bytes, err := scatterToRuns(g, rel.Arity(), nparts, at,
		func(emit func(row []Value) error) error {
			for i := 0; i < rel.Len(); i++ {
				if err := emit(rel.RowAt(i)); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	g.noteSpill(bytes)
	return &JoinIndex{keyCols: keyCols, at: at, arity: rel.Arity(), nrows: rel.Len(),
		gauge: g, spill: &joinSpill{parts: parts}}, nil
}

// scatterToRuns is THE Grace-hash scatter: it routes every row the source
// emits into one of nparts on-disk runs (in g's spill directory, reads
// metered on g) by spillPartition over the key positions at, finishes the
// runs, and returns them with the total bytes written. Both sides of a spilled join use it — the build side
// (buildJoinIndexSpilled) and the probe side (graceIter.prepare) — which
// is exactly what guarantees key-equal rows of the two sides meet in the
// same partition. On any error every run created so far is closed.
func scatterToRuns(g *MemGauge, arity, nparts int, at []int,
	source func(emit func(row []Value) error) error) ([]*spillRun, int64, error) {
	runs := make([]*spillRun, 0, nparts)
	fail := func(err error) ([]*spillRun, int64, error) {
		closeRuns(runs)
		return nil, 0, err
	}
	for p := 0; p < nparts; p++ {
		run, err := newSpillRun(g, arity)
		if err != nil {
			return fail(err)
		}
		runs = append(runs, run)
	}
	emit := func(row []Value) error {
		return runs[spillPartition(row, at, nparts)].append(row)
	}
	if err := source(emit); err != nil {
		return fail(err)
	}
	var bytes int64
	for _, run := range runs {
		if err := run.finish(); err != nil {
			return fail(err)
		}
		bytes += run.bytes
	}
	return runs, bytes, nil
}

func closeRuns(runs []*spillRun) {
	for _, r := range runs {
		r.Close()
	}
}

// Spilled reports whether the index holds its build rows in on-disk
// partitions. Spilled indexes must be probed with GraceJoinStream or
// GraceAntijoinStream; Matches/Contains panic.
func (ix *JoinIndex) Spilled() bool { return ix.spill != nil }

// Close releases the index's gauge charge and, for spilled indexes, the
// partition runs. The index must not be probed afterwards; calling Close
// more than once is harmless.
func (ix *JoinIndex) Close() {
	if ix.memBytes != 0 && ix.gauge != nil {
		ix.gauge.Release(ix.memBytes)
		ix.memBytes = 0
	}
	if ix.spill != nil {
		closeRuns(ix.spill.parts)
	}
}

// loadPartition reads build partition p back into memory and indexes it —
// the per-partition build of the Grace-hash probe. The transient
// sub-index (partition data copy + buckets) is charged to the spilled
// index's gauge; the caller must Close the returned sub-index when done
// with the partition to return the charge. Safe for concurrent use
// (partition reads are positioned); note that concurrent Grace streams
// each load their own partition copy, and each copy is charged, so the
// gauge sees the full transient pressure.
func (ix *JoinIndex) loadPartition(p int) *JoinIndex {
	run := ix.spill.parts[p]
	n := run.records()
	data := make([]Value, n*ix.arity)
	if err := run.readRange(0, n, data); err != nil {
		panic(err)
	}
	sub := buildJoinIndex(data, ix.arity, n, ix.at)
	sub.keyCols = ix.keyCols
	if ix.gauge != nil {
		sub.gauge = ix.gauge
		sub.memBytes = int64(n)*IndexRowBytes + int64(len(data))*8
		ix.gauge.Charge(sub.memBytes)
	}
	return sub
}

// newJoinIndexShell allocates an index header with nShards empty bucket
// shards (nShards must be a power of two).
func newJoinIndexShell(data []Value, arity, nrows, nShards int) *JoinIndex {
	ix := &JoinIndex{at: nil, data: data, arity: arity, nrows: nrows,
		shards: make([]ixShard, nShards)}
	shift := uint(64)
	for s := nShards; s > 1; s >>= 1 {
		shift--
	}
	ix.shardShift = shift
	for i := range ix.shards {
		ix.shards[i].buckets = make(map[uint64][]int32, nrows/nShards)
	}
	return ix
}

// buildJoinIndex indexes a flat row-major store on the given positions,
// serially, into a single bucket shard.
func buildJoinIndex(data []Value, arity, nrows int, at []int) *JoinIndex {
	ix := newJoinIndexShell(data, arity, nrows, 1)
	ix.at = at
	sh := &ix.shards[0]
	for i := 0; i < nrows; i++ {
		ix.insertRow(sh, int32(i), HashValuesAt(ix.rowAt(int32(i)), at))
	}
	ix.keys = sh.keys
	return ix
}

// buildJoinIndexParallel is the two-phase parallel build: phase 1 hashes
// the key columns of all rows in chunk-granular tasks; phase 2 gives each
// bucket shard to one worker, which scans the (read-only) hash array and
// inserts exactly the rows routed to it. Shards never share buckets, so
// phase 2 needs no locks and no merge; the resulting index is probed
// shard-wise by the same routing.
func buildJoinIndexParallel(data []Value, arity, nrows int, at []int, chunk, workers int) *JoinIndex {
	nShards := 1
	for nShards < workers && nShards < ixMaxShards {
		nShards <<= 1
	}
	ix := newJoinIndexShell(data, arity, nrows, nShards)
	ix.at = at
	hashes := make([]uint64, nrows)
	tasks := (nrows + chunk - 1) / chunk
	runWorkers(tasks, workers, func(_, task int) {
		lo := task * chunk
		hi := lo + chunk
		if hi > nrows {
			hi = nrows
		}
		for i := lo; i < hi; i++ {
			hashes[i] = HashValuesAt(ix.rowAt(int32(i)), at)
		}
	})
	runWorkers(nShards, workers, func(_, s int) {
		sh := &ix.shards[s]
		want := uint64(s)
		for i := 0; i < nrows; i++ {
			if h := hashes[i]; h>>ix.shardShift == want {
				ix.insertRow(sh, int32(i), h)
			}
		}
	})
	for i := range ix.shards {
		ix.keys += ix.shards[i].keys
	}
	return ix
}

// insertRow appends row ri under hash h into a shard, maintaining the
// distinct-key count across hash collisions (a bucket can mix several
// distinct keys under one 64-bit collision; a new key is counted only when
// no earlier bucket row shares it).
func (ix *JoinIndex) insertRow(sh *ixShard, ri int32, h uint64) {
	b := sh.buckets[h]
	row := ix.rowAt(ri)
	newKey := true
	for _, prev := range b {
		if ix.sameKeyAs(ix.rowAt(prev), row) {
			newKey = false
			break
		}
	}
	if newKey {
		sh.keys++
	}
	sh.buckets[h] = append(b, ri)
}

// rowAt returns a view of indexed row ri in the flat snapshot.
func (ix *JoinIndex) rowAt(ri int32) []Value {
	at := int(ri) * ix.arity
	return ix.data[at : at+ix.arity : at+ix.arity]
}

// KeyCols returns the indexed columns (empty for position-built indexes).
func (ix *JoinIndex) KeyCols() []string { return ix.keyCols }

// Len returns the number of distinct keys in the index (0 for spilled
// indexes, whose keys are only discovered partition by partition).
func (ix *JoinIndex) Len() int { return ix.keys }

// Rows returns how many rows the index covers.
func (ix *JoinIndex) Rows() int { return ix.nrows }

// Shards returns the bucket-shard count (1 for serially built indexes, 0
// for spilled indexes).
func (ix *JoinIndex) Shards() int { return len(ix.shards) }

// mustInMemory guards the random-access probe surface against spilled
// indexes, whose rows live partition-wise on disk.
func (ix *JoinIndex) mustInMemory() {
	if ix.spill != nil {
		panic("core: random-access probe of a spilled JoinIndex; use GraceJoinStream/GraceAntijoinStream")
	}
}

// sameKeyAs reports whether two indexed rows agree on the key positions.
func (ix *JoinIndex) sameKeyAs(a, b []Value) bool {
	for _, p := range ix.at {
		if a[p] != b[p] {
			return false
		}
	}
	return true
}

// keyMatches reports whether row's key positions equal the probe key.
func (ix *JoinIndex) keyMatches(row, key []Value) bool {
	for i, p := range ix.at {
		if row[p] != key[i] {
			return false
		}
	}
	return true
}

// Matches appends to dst every indexed row whose key columns equal key
// (aligned with KeyCols) and returns the extended slice. The appended rows
// are zero-copy views into the index's flat snapshot. Candidate rows from
// colliding hash buckets are filtered by value comparison.
func (ix *JoinIndex) Matches(dst [][]Value, key []Value) [][]Value {
	ix.mustInMemory()
	for _, ri := range ix.bucketFor(HashValues(key)) {
		row := ix.rowAt(ri)
		if ix.keyMatches(row, key) {
			dst = append(dst, row)
		}
	}
	return dst
}

// Contains reports whether any indexed row has the given key.
func (ix *JoinIndex) Contains(key []Value) bool {
	ix.mustInMemory()
	for _, ri := range ix.bucketFor(HashValues(key)) {
		if ix.keyMatches(ix.rowAt(ri), key) {
			return true
		}
	}
	return false
}

// matchesAt is Matches with the probe key read from probe's positions at,
// avoiding a key copy on the hot path.
func (ix *JoinIndex) matchesAt(dst [][]Value, probe []Value, at []int) [][]Value {
	ix.mustInMemory()
	for _, ri := range ix.bucketFor(HashValuesAt(probe, at)) {
		row := ix.rowAt(ri)
		if ix.keyMatchesAt(row, probe, at) {
			dst = append(dst, row)
		}
	}
	return dst
}

// containsAt is Contains with the key read from probe's positions at.
func (ix *JoinIndex) containsAt(probe []Value, at []int) bool {
	ix.mustInMemory()
	for _, ri := range ix.bucketFor(HashValuesAt(probe, at)) {
		if ix.keyMatchesAt(ix.rowAt(ri), probe, at) {
			return true
		}
	}
	return false
}

// keyMatchesAt compares an indexed row's key positions against probe's.
func (ix *JoinIndex) keyMatchesAt(row, probe []Value, at []int) bool {
	for i, p := range ix.at {
		if row[p] != probe[at[i]] {
			return false
		}
	}
	return true
}
