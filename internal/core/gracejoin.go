package core

// This file implements the probe side of the over-budget join: a spilled
// JoinIndex (see joinindex.go) holds its build rows hash-partitioned in
// on-disk runs, and the Grace-hash iterators here drain the probe stream
// into matching probe partitions, then process one partition at a time —
// load the build partition, index it in memory, replay the probe partition
// in bounded chunks — so the transient in-memory state is one partition's
// sub-index plus one chunk of probe rows, regardless of input size. Rows
// with equal key values hash to the same partition on both sides, so the
// partition-local join is exhaustive.
//
// The output is set-equivalent to the in-memory JoinStream/AntijoinStream
// but partition-ordered, which is covered by the engine's determinism
// contract: everything downstream of a join feeds a deduplicating sink and
// is compared order-insensitively (SameRows).

// GraceJoinStream joins a probe stream against a spilled index built over
// the build side's common columns, partition-at-a-time. buildCols is the
// build side's schema. The iterator owns its pipeline state and is not
// safe for concurrent use, but several GraceJoinStreams may share one
// spilled index (partition reads only decode the run's mapping). The
// output batch comes from pool (nil allocates).
func GraceJoinStream(probe Iterator, ix *JoinIndex, buildCols []string, pool *BatchPool) Iterator {
	plan := newJoinPlan(probe.Cols(), buildCols)
	return &graceIter{
		probe:   probe,
		ix:      ix,
		plan:    plan,
		probeAt: plan.commonA,
		cols:    plan.outCols,
		out:     pool.get(len(plan.outCols)),
	}
}

// GraceAntijoinStream streams probe ▷ build for a spilled build index,
// partition-at-a-time; probeAt locates the common columns in probe rows
// (aligned with the index key). Like AntijoinStream, the no-common-columns
// case must be handled by the caller.
func GraceAntijoinStream(probe Iterator, ix *JoinIndex, probeAt []int, pool *BatchPool) Iterator {
	return &graceIter{
		probe:   probe,
		ix:      ix,
		probeAt: probeAt,
		anti:    true,
		cols:    probe.Cols(),
		out:     pool.get(len(probe.Cols())),
	}
}

// graceIter is the shared partition-at-a-time machinery of the Grace join
// and antijoin.
type graceIter struct {
	probe   Iterator
	ix      *JoinIndex
	plan    joinPlan
	probeAt []int
	anti    bool
	cols    []string
	out     *Batch

	prepared bool
	parts    []*spillRun // probe rows, partitioned like the build side
	p        int         // current partition (-1 before the first)
	sub      *JoinIndex  // in-memory index over build partition p
	rec      int         // next probe record of partition p to decode
	chunk    []Value     // decoded probe rows of the current read
	chunkN   int
	ci       int
	prow     []Value
	scratch  [][]Value
	mi       int
	done     bool
}

func (it *graceIter) Cols() []string { return it.cols }

// prepare drains the probe stream into per-partition runs through
// scatterToRuns — the same key-hash routing the build side used, so each
// partition pair is join-complete on its own.
func (it *graceIter) prepare() {
	nparts := len(it.ix.spill.parts)
	parts, bytes, err := scatterToRuns(it.ix.gauge, len(it.probe.Cols()), nparts, it.probeAt,
		func(emit func(row []Value) error) error {
			for b := it.probe.Next(); b != nil; b = it.probe.Next() {
				for i := 0; i < b.Len(); i++ {
					if err := emit(b.Row(i)); err != nil {
						return err
					}
				}
			}
			return nil
		})
	if err != nil {
		// The probe replay has no error channel (matching the rest of the
		// spill layer's I/O contract).
		panic(err)
	}
	it.parts = parts
	it.ix.gauge.noteSpill(bytes)
	it.p = -1
}

// nextChunk advances the probe replay cursor: the next chunk of the
// current partition, or the first chunk of the next non-empty partition
// (loading that partition's build sub-index). Returns false when all
// partitions are exhausted.
func (it *graceIter) nextChunk() bool {
	arity := len(it.probe.Cols())
	step := BatchRowsFor(arity)
	for {
		if it.p >= 0 && it.rec < it.parts[it.p].records() {
			hi := it.rec + step
			if n := it.parts[it.p].records(); hi > n {
				hi = n
			}
			if cap(it.chunk) < (hi-it.rec)*arity {
				it.chunk = make([]Value, step*arity)
			}
			buf := it.chunk[:(hi-it.rec)*arity]
			it.parts[it.p].readRange(it.rec, hi, buf)
			it.chunkN = hi - it.rec
			it.rec = hi
			it.ci = 0
			return true
		}
		it.p++
		if it.p >= len(it.parts) {
			return false
		}
		it.rec = 0
		if it.parts[it.p].records() == 0 {
			continue // nothing probes this partition; skip the build load
		}
		if it.sub != nil {
			it.sub.Close() // return the previous partition's gauge charge
		}
		it.sub = it.ix.loadPartition(it.p)
	}
}

// cleanup releases the probe partition runs and the last partition's
// sub-index charge once the stream is exhausted.
func (it *graceIter) cleanup() {
	closeRuns(it.parts)
	it.parts = nil
	if it.sub != nil {
		it.sub.Close()
		it.sub = nil
	}
}

func (it *graceIter) Next() *Batch {
	if it.done {
		return nil
	}
	if !it.prepared {
		it.prepare()
		it.prepared = true
	}
	it.out.reset()
	arity := len(it.probe.Cols())
	for {
		// Flush pending matches of the current probe row (join mode); the
		// chunk buffer is not advanced until they are drained, so prow
		// stays valid across Next calls.
		for it.mi < len(it.scratch) {
			if it.out.full() {
				return it.out
			}
			it.plan.combineInto(it.out.appendEmptyRow(), it.prow, it.scratch[it.mi])
			it.mi++
		}
		if it.ci >= it.chunkN {
			if !it.nextChunk() {
				it.done = true
				it.cleanup()
				if it.out.Len() == 0 {
					return nil
				}
				return it.out
			}
		}
		row := it.chunk[it.ci*arity : (it.ci+1)*arity : (it.ci+1)*arity]
		it.ci++
		if it.anti {
			if !it.sub.containsAt(row, it.probeAt) {
				it.out.AppendRow(row)
				if it.out.full() {
					return it.out
				}
			}
			continue
		}
		it.prow = row
		it.scratch = it.sub.matchesAt(it.scratch[:0], row, it.probeAt)
		it.mi = 0
	}
}
