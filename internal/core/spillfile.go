package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
)

// This file implements the on-disk run format of the spilling
// accumulator: fixed-width records, each record recVals Values encoded as
// 8-byte little-endian words, laid out from a base offset of a temp file.
// Fixed width keeps records addressable (record i of a run lives at byte
// base + i*recVals*8). A finished run is read through a read-only mapping
// of its extent, so a frozen accumulator run is probed by comparing the
// records at the position its in-memory filter yields in place, with no
// system call, and compaction and materialization decode it in bounded
// chunks. No slice of a mapping leaves a run's methods: callers get a
// bool or decoded copies, so nothing outlives the unmap in Close.
//
// A spill file holds the runs of one accumulator eviction round, one
// extent per frozen shard. It is unlinked immediately after creation: the
// file lives for exactly as long as its descriptor and its runs'
// mappings, so a crash, a panic or a forgotten Close can never leave a
// spill file behind on disk (the CI leak check asserts this). The
// descriptor closes when the last run in the file does; finalizers
// backstop the descriptor and the mappings for owners that go out of
// scope without closing.

// spillWriteBuf is the write buffer of a run being written.
const spillWriteBuf = 1 << 16

// SpillFilePattern is the os.CreateTemp pattern of every spill file the
// engine creates — the name CI's leak check greps for.
const SpillFilePattern = "mura-spill-*"

// spillFile is one unlinked temp file and the count of holders still using
// it: every run laid out in it, plus its creator until the creator has
// finished handing out runs.
type spillFile struct {
	f    *os.File
	refs atomic.Int32
}

// newSpillFile creates an unlinked temp file in dir, held once by the
// caller (release).
func newSpillFile(dir string) (*spillFile, error) {
	f, err := os.CreateTemp(dir, SpillFilePattern)
	if err != nil {
		return nil, fmt.Errorf("core: spill: %w", err)
	}
	// Unlink now: the file lives until the descriptor closes and can never
	// be left behind, whatever happens to the process.
	os.Remove(f.Name())
	sf := &spillFile{f: f}
	sf.refs.Store(1)
	runtime.SetFinalizer(sf, func(sf *spillFile) { sf.f.Close() })
	return sf, nil
}

// release drops one hold; the last one closes the descriptor (and with it
// the unlinked file).
func (sf *spillFile) release() error {
	if sf.refs.Add(-1) != 0 {
		return nil
	}
	runtime.SetFinalizer(sf, nil)
	return sf.f.Close()
}

// spillRun is one on-disk run of fixed-width Value records. Writes
// (append) are single-owner and must finish before any read; reads
// (readRange, holds) go through the mapping finish makes and are safe for
// concurrent use until Close — the parallel fixpoint probes frozen runs
// from many goroutines.
type spillRun struct {
	file    *spillFile
	base    int64 // byte offset of record 0 in file
	w       *bufio.Writer
	gauge   *MemGauge // meters reads; nil-safe
	recVals int
	n       int
	bytes   int64
	scratch []byte // append's encode buffer
	mapping []byte // the pages mapped by finish; nil for an empty run
	data    []byte // the run's records, within mapping
	closed  atomic.Bool
}

// runAt lays a new run out at byte offset base of the file, written
// through w (reset onto the extent; the caller may reuse w once the run
// has finished). Extents of one file must not overlap — the caller sizes
// them from the record counts it is about to write.
func (sf *spillFile) runAt(base int64, recVals int, g *MemGauge, w *bufio.Writer) *spillRun {
	sf.refs.Add(1)
	w.Reset(io.NewOffsetWriter(sf.f, base))
	return &spillRun{file: sf, base: base, w: w, gauge: g, recVals: recVals}
}

// spillSegment lays consecutive runs out in one spill file — the file of an
// accumulator eviction round, one pre-sized extent per frozen shard. The
// zero value (plus a gauge) is ready: the file is created by the first
// extent, so a round that freezes nothing creates nothing. Single-owner;
// each run must finish before the next extent is taken (they share the
// write buffer).
type spillSegment struct {
	gauge *MemGauge
	file  *spillFile
	off   int64 // end of the last extent handed out
	w     *bufio.Writer
}

// extent returns a run of exactly records recVals-Value records at the
// segment's next free offset.
func (s *spillSegment) extent(recVals, records int) (*spillRun, error) {
	if s.file == nil {
		sf, err := newSpillFile(s.gauge.Dir())
		if err != nil {
			return nil, err
		}
		s.file = sf
		s.w = bufio.NewWriterSize(nil, spillWriteBuf)
	}
	r := s.file.runAt(s.off, recVals, s.gauge, s.w)
	s.off += int64(records) * int64(recVals) * 8
	return r, nil
}

// close drops the segment's own hold on its file, which then lives for as
// long as the runs handed out of it.
func (s *spillSegment) close() {
	if s.file != nil {
		s.file.release()
		s.file = nil
	}
}

// append writes one record (len must be recVals). Single-owner; must not
// race with reads or other appends.
func (r *spillRun) append(rec []Value) error {
	if len(rec) != r.recVals {
		panic(fmt.Sprintf("core: spill record has %d values, run expects %d", len(rec), r.recVals))
	}
	if cap(r.scratch) < 8*r.recVals {
		r.scratch = make([]byte, 8*r.recVals)
	}
	buf := r.scratch[:8*r.recVals]
	for i, v := range rec {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
	}
	if _, err := r.w.Write(buf); err != nil {
		return fmt.Errorf("core: spill write: %w", err)
	}
	r.n++
	r.bytes += int64(len(buf))
	return nil
}

// finish flushes buffered writes, lets go of the writer and maps the
// run's extent; reads are valid only after finish.
func (r *spillRun) finish() error {
	err := r.w.Flush()
	r.w = nil
	if err != nil {
		return fmt.Errorf("core: spill flush: %w", err)
	}
	if r.bytes == 0 {
		return nil
	}
	m, at, err := mapExtent(r.file.f, r.base, int(r.bytes))
	if err != nil {
		return fmt.Errorf("core: spill map: %w", err)
	}
	r.mapping, r.data = m, m[at:at+int(r.bytes)]
	runtime.SetFinalizer(r, (*spillRun).Close)
	return nil
}

// records returns how many records the run holds.
func (r *spillRun) records() int { return r.n }

// readRange decodes records [lo, hi) into dst (len >= (hi-lo)*recVals):
// one run access on the gauge (SpillReads, SpillReadBytes). Safe for
// concurrent use after finish.
func (r *spillRun) readRange(lo, hi int, dst []Value) {
	src := r.data[lo*r.recVals*8 : hi*r.recVals*8]
	if len(src) == 0 {
		return
	}
	for i := range dst[:len(src)/8] {
		dst[i] = Value(binary.LittleEndian.Uint64(src[i*8:]))
	}
	r.gauge.noteSpillRead(int64(len(src)))
}

// holds reports whether one of records [lo, hi) is head followed by tail
// (len recVals-1), comparing in place on the mapping, and returns the bytes
// the access covered: one run access, of the whole range, which the caller
// notes on the gauge (accRun.locate tallies it under the shard lock). Safe
// for concurrent use after finish.
func (r *spillRun) holds(lo, hi int, head Value, tail []Value) (found bool, bytes int64) {
	w := r.recVals * 8
	src := r.data[lo*w : hi*w]
	for rec := src; len(rec) >= w && !found; rec = rec[w:] {
		found = Value(binary.LittleEndian.Uint64(rec)) == head && wordsEqual(rec[8:w], tail)
	}
	return found, int64(len(src))
}

// wordsEqual reports whether b encodes vals (8 little-endian bytes each).
func wordsEqual(b []byte, vals []Value) bool {
	for j, v := range vals {
		if Value(binary.LittleEndian.Uint64(b[8*j:])) != v {
			return false
		}
	}
	return true
}

// Close unmaps the run and drops its hold on its file; the descriptor
// (and the unlinked file) goes with the file's last run. Idempotent.
func (r *spillRun) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	runtime.SetFinalizer(r, nil)
	var err error
	if r.mapping != nil {
		err = unmapExtent(r.mapping)
		r.mapping, r.data = nil, nil
	}
	return errors.Join(err, r.file.release())
}
