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
// cannot produce wrong matches. The build is a single serial pass into
// one bucket map. Probing is read-only and safe for concurrent use — the
// parallel fixpoint step probes one index from many goroutines.
type JoinIndex struct {
	keyCols []string // indexed columns (as given, relation-schema order)
	at      []int    // positions of keyCols in the indexed rows
	data    []Value  // flat row-major snapshot of the indexed rows
	arity   int
	nrows   int
	buckets map[uint64][]int32 // key hash → candidate rows
	keys    int                // number of distinct keys

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

// BuildJoinIndex indexes rel on keyCols. Every keyCol must be in rel's
// schema. The index snapshots rel's backing array: rows added to rel
// afterwards are not covered.
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
func BuildJoinIndex(rel *Relation, keyCols []string, g *MemGauge) (*JoinIndex, error) {
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
	ix := buildJoinIndex(rel.Data(), rel.Arity(), rel.Len(), at)
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
// (partition reads only decode the run's read-only mapping); note that
// concurrent Grace streams each load their own partition copy, and each
// copy is charged, so the gauge sees the full transient pressure.
func (ix *JoinIndex) loadPartition(p int) *JoinIndex {
	run := ix.spill.parts[p]
	n := run.records()
	data := make([]Value, n*ix.arity)
	run.readRange(0, n, data)
	sub := buildJoinIndex(data, ix.arity, n, ix.at)
	sub.keyCols = ix.keyCols
	if ix.gauge != nil {
		sub.gauge = ix.gauge
		sub.memBytes = int64(n)*IndexRowBytes + int64(len(data))*8
		ix.gauge.Charge(sub.memBytes)
	}
	return sub
}

// buildJoinIndex indexes a flat row-major store on the given positions.
// The distinct-key count is kept exact across hash collisions: a bucket
// can mix several distinct keys under one 64-bit collision, and a row
// counts as a new key only when no earlier bucket row shares it.
func buildJoinIndex(data []Value, arity, nrows int, at []int) *JoinIndex {
	ix := &JoinIndex{at: at, data: data, arity: arity, nrows: nrows,
		buckets: make(map[uint64][]int32, nrows)}
	for i := 0; i < nrows; i++ {
		ri := int32(i)
		row := ix.rowAt(ri)
		h := HashValuesAt(row, at)
		b := ix.buckets[h]
		newKey := true
		for _, prev := range b {
			if ix.sameKeyAs(ix.rowAt(prev), row) {
				newKey = false
				break
			}
		}
		if newKey {
			ix.keys++
		}
		ix.buckets[h] = append(b, ri)
	}
	return ix
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
	for _, ri := range ix.buckets[HashValues(key)] {
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
	for _, ri := range ix.buckets[HashValues(key)] {
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
	for _, ri := range ix.buckets[HashValuesAt(probe, at)] {
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
	for _, ri := range ix.buckets[HashValuesAt(probe, at)] {
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
