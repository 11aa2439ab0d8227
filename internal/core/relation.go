package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Relation is a set of tuples over a fixed schema, the µ-RA data model.
// The schema is a sorted list of column names; tuples are stored row-major
// in a single flat []Value backing array (arity-strided), so a scan hands
// out zero-copy views straight into the storage and an insert is one
// bounds-checked append instead of a per-row allocation. Set semantics are
// enforced on insertion: adding a duplicate row is a no-op. Row iteration
// order is insertion order, which keeps single-threaded evaluation
// deterministic for a deterministic input.
//
// Deduplication is backed by an open-addressing set (tupleSet) of one-word
// slots, each a 32-bit tag of the row hash above a row index into the
// backing array: membership costs one FNV-1a hash and, on a tag hit, one
// value-wise comparison, with zero allocation.
//
// The dedup set may be deferred: a relation filled from rows that are
// distinct by construction (AppendDistinct — a duplicate-free stream, an
// accumulator's shards, the frames of a disjoint gather, a Slice view)
// stores the rows only, and the set is built by the first operation that
// needs it (Has, Add, Remove, Clone of a built set, Equal). Most results
// are only ever scanned and never pay for it.
//
// Concurrency: a Relation is single-writer — Add/AddBatch/Remove/Union*/
// AppendDistinct must not run concurrently with anything else. Read-only
// access (RowAt, Data, scans, Has) is safe from any number of goroutines,
// including on a relation whose set is still deferred: the first
// membership query builds the set exactly once under setMu and concurrent
// readers wait for it. The parallel fixpoint step and the shared
// sub-result cache rely on exactly that.
type Relation struct {
	cols []string
	data []Value // row-major backing array, len = n*arity
	n    int     // number of rows
	set  tupleSet
	// readonly marks views produced by Slice, which share a window of
	// another relation's backing array, so insertion must never touch them
	// (an append could clobber the parent's rows through shared capacity),
	// and sealed relations (Seal).
	readonly bool
	// memo holds the operands derived from a sealed relation alone, and
	// self the relation itself as an operand; nil until Seal.
	memo *OperandMemo
	self *Operand
	// deferred is true while the dedup set has not been built over the
	// stored rows; setMu serializes the one build (see ensureSet).
	deferred atomic.Bool
	setMu    sync.Mutex
	// version counts the mutations that changed the rows (see Version).
	version uint64
}

// NewRelation returns an empty relation over the given columns.
// Columns are copied and sorted; duplicate column names panic, since a
// schema with duplicates is a programming error, never data-dependent.
func NewRelation(cols ...string) *Relation {
	sorted := SortCols(cols)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			panic(fmt.Sprintf("core: duplicate column %q in schema", sorted[i]))
		}
	}
	return &Relation{cols: sorted}
}

// NewRelationSized is NewRelation with a capacity hint for the row storage.
func NewRelationSized(n int, cols ...string) *Relation {
	r := NewRelation(cols...)
	r.Reserve(n)
	return r
}

// Reserve grows the backing array and the dedup set for about n rows.
func (r *Relation) Reserve(n int) {
	r.ReserveRows(n)
	if !r.deferred.Load() {
		r.set.reserve(n)
	}
}

// ReserveRows grows the backing array alone for about n rows — the
// capacity hint of AppendDistinct fills, which never touch the set.
func (r *Relation) ReserveRows(n int) {
	if need := n * len(r.cols); cap(r.data) < need {
		grown := make([]Value, len(r.data), need)
		copy(grown, r.data)
		r.data = grown
	}
}

// Version returns the relation's mutation counter: it advances on every
// insertion of a new row and every removal of a present row, and nothing
// else moves it (a duplicate insert, an absent remove, a membership query
// that builds the deferred set). Together with the relation's identity it
// names one state of its rows; the cluster keys worker-resident broadcast
// copies by it. Like every accessor it follows the single-writer rule.
func (r *Relation) Version() uint64 { return r.version }

// Seal declares that r's rows never change again: from now on inserting
// into or removing from r panics, and the constant operands evaluators
// derive from r alone, r itself included, are memoized on r with their
// join indexes and shared by every evaluator that reads it, for as long as
// r lives. The cluster seals each worker's copy of a broadcast as it
// arrives, so a copy that stays resident across fixpoints and queries also
// keeps its filtered and joined forms and every index built over them. The
// memo is budgeted at budgetBytes (OperandMemo's admission rule; 0 meters
// without evicting); r's own indexes are charged to the memo's gauge but
// never evicted.
func (r *Relation) Seal(budgetBytes int64) {
	r.readonly = true
	r.memo = NewOperandMemo(budgetBytes)
	r.self = NewOperand(r, r.memo.gauge)
}

// Cols returns the relation's schema (sorted). The returned slice must not
// be modified.
func (r *Relation) Cols() []string { return r.cols }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.cols) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Data returns the flat row-major backing array (read-only, len = Len()*
// Arity()). It is the zero-copy export used by batch scans and the cluster
// frame encoder.
func (r *Relation) Data() []Value { return r.data[:r.n*len(r.cols)] }

// RowAt returns a zero-copy view of row i, valid until the next insertion
// into r (an append may move the backing array). Callers must not modify
// it.
func (r *Relation) RowAt(i int) []Value {
	a := len(r.cols)
	return r.data[i*a : (i+1)*a : (i+1)*a]
}

// Rows is the compatibility accessor from the row-slice storage era: it
// materializes a fresh [][]Value of views into the backing array, on
// demand. The views must be treated as read-only and follow RowAt's
// validity rule. Hot paths should iterate RowAt/Data instead.
func (r *Relation) Rows() [][]Value {
	out := make([][]Value, r.n)
	for i := range out {
		out[i] = r.RowAt(i)
	}
	return out
}

// AsBatch returns the whole relation as one zero-copy batch aliasing the
// backing array (same validity rule as RowAt).
func (r *Relation) AsBatch() *Batch { return r.BatchRange(0, r.n) }

// Scan hands f the relation's rows as one zero-copy batch (none when r is
// empty): the shape of Accumulator.Scan, so a plan ships either the same
// way.
func (r *Relation) Scan(f func(*Batch) error) error {
	if r.n == 0 {
		return nil
	}
	return f(r.AsBatch())
}

// BatchRange returns rows [lo, hi) as a zero-copy batch aliasing the
// backing array (same validity rule as RowAt).
func (r *Relation) BatchRange(lo, hi int) *Batch {
	a := len(r.cols)
	return &Batch{arity: a, n: hi - lo, vals: r.data[lo*a : hi*a : hi*a], target: BatchRowsFor(a)}
}

// Slice returns a read-only view of rows [lo, hi) sharing r's backing
// array: the unit of work the parallel fixpoint step hands to each probe
// worker. Views support scanning, joining and membership tests (the dedup
// set is built lazily on first use); inserting into a view panics. A view
// is invalidated by insertions into r, like any other row view.
func (r *Relation) Slice(lo, hi int) *Relation {
	a := len(r.cols)
	return newView(r.cols, r.data[lo*a:hi*a:hi*a], hi-lo)
}

// newView wraps a window of distinct rows as a read-only relation whose
// dedup set is deferred.
func newView(cols []string, data []Value, n int) *Relation {
	v := &Relation{cols: cols, data: data, n: n, readonly: true}
	v.deferred.Store(true)
	return v
}

// RowKey packs a row into a string key usable as a map key. Rows of equal
// values always produce equal keys. The evaluator's hot paths no longer
// use packed keys (they hash rows directly); RowKey remains the canonical
// order-preserving serialization of a row for callers that need a string.
func RowKey(row []Value) string {
	b := make([]byte, 8*len(row))
	for i, v := range row {
		binary.BigEndian.PutUint64(b[i*8:], uint64(v))
	}
	return string(b)
}

// Add inserts a row (aligned with Cols()), returning true if it was new.
// The values are copied into the backing array; the caller keeps ownership
// of the slice.
func (r *Relation) Add(row []Value) bool {
	if len(row) != len(r.cols) {
		panic(fmt.Sprintf("core: row arity %d does not match schema %v", len(row), r.cols))
	}
	if r.readonly {
		panic("core: insert into a read-only relation view")
	}
	r.ensureSet()
	r.set.growFor(r.n + 1)
	h := HashValues(row)
	slot, found := r.set.lookup(h, row, r.data, len(r.cols))
	if found {
		return false
	}
	r.data = append(r.data, row...)
	r.n++
	r.version++
	r.set.claim(slot, h, int32(r.n))
	return true
}

// AppendDistinct bulk-appends the rows of b, which the caller guarantees
// are absent from r and distinct among themselves — a duplicate-free
// stream, a frame of a disjoint gather, a window of accumulator rows. It
// is one memcpy of the flat row block, with the dedup set deferred to the
// first operation that needs it; once that set exists, later appends extend
// it (one insert per row, no membership probe). A nil batch is a no-op.
func (r *Relation) AppendDistinct(b *Batch) {
	if b == nil {
		return
	}
	if b.arity != len(r.cols) {
		panic(fmt.Sprintf("core: batch arity %d does not match schema %v", b.arity, r.cols))
	}
	r.appendDistinctVals(b.vals, b.n)
}

// appendDistinctVals is AppendDistinct over a flat block of n rows.
func (r *Relation) appendDistinctVals(vals []Value, n int) {
	if r.readonly {
		panic("core: insert into a read-only relation view")
	}
	if n == 0 {
		return
	}
	r.version++
	if !r.deferred.Load() && r.n > 0 {
		// A set someone already paid for is extended, not dropped: a caller
		// interleaving these appends with membership queries would otherwise
		// rebuild it on every query.
		a := len(r.cols)
		for i := 0; i < n; i++ {
			row := vals[i*a : (i+1)*a]
			r.data = append(r.data, row...)
			r.n++
			r.set.growFor(r.n)
			r.set.insertFresh(HashValues(row), int32(r.n))
		}
		return
	}
	r.deferred.Store(true)
	r.data = append(r.data, vals...)
	r.n += n
}

// Remove deletes a row by value (swap-remove: the last row moves into the
// vacated position, so removal is O(1) and the backing array stays dense),
// returning true if the row was present. Removal follows the same
// single-writer rule as Add and additionally invalidates outstanding
// zero-copy views (RowAt, Slice, AsBatch) of the last row, which moves.
func (r *Relation) Remove(row []Value) bool {
	if r.readonly {
		panic("core: remove from a read-only relation view")
	}
	if len(row) != len(r.cols) {
		panic(fmt.Sprintf("core: row arity %d does not match schema %v", len(row), r.cols))
	}
	r.ensureSet()
	a := len(r.cols)
	h := HashValues(row)
	slot, found := r.set.lookup(h, row, r.data, a)
	if !found {
		return false
	}
	idx := r.set.rowAt(slot)
	r.set.remove(slot)
	last := r.n - 1
	if idx != last {
		lastRow := r.data[last*a : (last+1)*a]
		lslot, lfound := r.set.lookup(HashValues(lastRow), lastRow, r.data, a)
		if !lfound {
			panic("core: dedup set lost a row during Remove")
		}
		copy(r.data[idx*a:(idx+1)*a], lastRow)
		r.set.reref(lslot, int32(idx+1))
	}
	r.data = r.data[:last*a]
	r.n = last
	r.version++
	return true
}

// Has reports whether the relation contains the row. It is safe for
// concurrent use with other readers (the parallel fixpoint step probes
// shared relations from many goroutines); a deferred set is built by the
// first caller.
func (r *Relation) Has(row []Value) bool {
	r.ensureSet()
	_, found := r.set.lookup(HashValues(row), row, r.data, len(r.cols))
	return found
}

// ensureSet builds a deferred dedup set, exactly once: concurrent first
// readers serialize on setMu and all but one find the set already built.
// The fast path is one atomic load.
func (r *Relation) ensureSet() {
	if !r.deferred.Load() {
		return
	}
	r.setMu.Lock()
	defer r.setMu.Unlock()
	if !r.deferred.Load() {
		return
	}
	defer r.deferred.Store(false)
	r.set.reserve(r.n)
	a := len(r.cols)
	for i := 0; i < r.n; i++ {
		row := r.data[i*a : (i+1)*a]
		h := HashValues(row)
		r.set.growFor(i + 1)
		if slot, found := r.set.lookup(h, row, r.data, a); !found {
			r.set.claim(slot, h, int32(i+1))
		}
	}
}

// AddBatch inserts every row of a batch (set semantics, values copied into
// the backing array) and returns the number of rows added — the flat
// decode path of the cluster transport: a received frame's buffer feeds
// the backing array directly, no intermediate row slices.
func (r *Relation) AddBatch(b *Batch) int {
	if b == nil {
		return 0
	}
	if b.arity != len(r.cols) {
		panic(fmt.Sprintf("core: batch arity %d does not match schema %v", b.arity, r.cols))
	}
	added := 0
	for i := 0; i < b.n; i++ {
		if r.Add(b.Row(i)) {
			added++
		}
	}
	return added
}

// AddTuple inserts a tuple given as column→value pairs in any column order.
func (r *Relation) AddTuple(cols []string, vals []Value) bool {
	if len(cols) != len(vals) || len(cols) != len(r.cols) {
		panic("core: AddTuple arity mismatch")
	}
	row := make([]Value, len(r.cols))
	for i, c := range cols {
		idx := ColIndex(r.cols, c)
		if idx < 0 {
			panic(fmt.Sprintf("core: AddTuple column %q not in schema %v", c, r.cols))
		}
		row[idx] = vals[i]
	}
	return r.Add(row)
}

// Clone returns an independent copy: one memcpy of the backing array and
// of the dedup set, no rehashing.
func (r *Relation) Clone() *Relation { return r.cloneSized(r.n) }

// cloneSized clones r with backing capacity for about n rows. A deferred
// set stays deferred in the clone.
func (r *Relation) cloneSized(n int) *Relation {
	if n < r.n {
		n = r.n
	}
	out := &Relation{cols: r.cols, n: r.n}
	if r.deferred.Load() {
		out.deferred.Store(true)
	} else {
		out.set = r.set.clone()
	}
	out.data = make([]Value, r.n*len(r.cols), n*len(r.cols))
	copy(out.data, r.data)
	return out
}

// Equal reports whether two relations have the same schema and tuple set.
func (r *Relation) Equal(o *Relation) bool {
	if !ColsEqual(r.cols, o.cols) || r.n != o.n {
		return false
	}
	for i := 0; i < r.n; i++ {
		if !o.Has(r.RowAt(i)) {
			return false
		}
	}
	return true
}

// SortedRows materializes the relation's rows as independent copies in
// canonical (lexicographic, value-wise) order — the order-insensitive view
// tests and diffs should compare, now that fixpoint results carry no
// insertion-order guarantee.
func (r *Relation) SortedRows() [][]Value {
	out := make([][]Value, r.n)
	flat := make([]Value, r.n*len(r.cols))
	a := len(r.cols)
	for i := range out {
		row := flat[i*a : (i+1)*a : (i+1)*a]
		copy(row, r.RowAt(i))
		out[i] = row
	}
	sort.Slice(out, func(i, j int) bool { return lessRows(out[i], out[j]) })
	return out
}

// lessRows orders rows lexicographically by value.
func lessRows(a, b []Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// SameRows reports whether two relations hold the same rows over the same
// schema, comparing in canonical order — the multiset/set equality
// contract every fixpoint consumer must use instead of positional Rows()
// comparison. It is Equal restated as an explicit order-insensitive
// contract; unlike Equal it does not touch either relation's dedup set,
// so it is safe on read-only views and across packages that only scan,
// and safe for concurrent use as long as neither relation is being
// mutated.
func SameRows(a, b *Relation) bool {
	if !ColsEqual(a.cols, b.cols) || a.n != b.n {
		return false
	}
	ra, rb := a.SortedRows(), b.SortedRows()
	for i := range ra {
		if !rowsEqual(ra[i], rb[i]) {
			return false
		}
	}
	return true
}

// String renders the relation for debugging: schema then sorted rows.
func (r *Relation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v{", r.cols)
	rows := make([]string, 0, r.n)
	for i := 0; i < r.n; i++ {
		row := r.RowAt(i)
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprint(v)
		}
		rows = append(rows, "("+strings.Join(parts, ",")+")")
	}
	sort.Strings(rows)
	sb.WriteString(strings.Join(rows, " "))
	sb.WriteString("}")
	return sb.String()
}

// Union returns r ∪ o. Schemas must be equal.
func (r *Relation) Union(o *Relation) *Relation {
	if !ColsEqual(r.cols, o.cols) {
		panic(fmt.Sprintf("core: union schema mismatch %v vs %v", r.cols, o.cols))
	}
	out := r.cloneSized(r.n + o.n)
	out.UnionInPlace(o)
	return out
}

// UnionInPlace adds all rows of o into r, returning the number added.
func (r *Relation) UnionInPlace(o *Relation) int {
	if !ColsEqual(r.cols, o.cols) {
		panic(fmt.Sprintf("core: union schema mismatch %v vs %v", r.cols, o.cols))
	}
	n := 0
	for i := 0; i < o.n; i++ {
		if r.Add(o.RowAt(i)) {
			n++
		}
	}
	return n
}

// Diff returns r \ o. Schemas must be equal. The rows of a set minus
// anything are distinct, so they are appended with the result's dedup set
// deferred: only o is probed.
func (r *Relation) Diff(o *Relation) *Relation {
	if !ColsEqual(r.cols, o.cols) {
		panic(fmt.Sprintf("core: diff schema mismatch %v vs %v", r.cols, o.cols))
	}
	out := NewRelation(r.cols...)
	for i := 0; i < r.n; i++ {
		if row := r.RowAt(i); !o.Has(row) {
			out.appendDistinctVals(row, 1)
		}
	}
	return out
}

// joinPlan precomputes the row recombination of a natural join between
// schemas a and b: the output schema and, for each output column, where it
// comes from.
type joinPlan struct {
	outCols []string
	fromA   []int // index into a's row, or -1
	fromB   []int // index into b's row, or -1 (only consulted when fromA<0)
	common  []string
	commonA []int // positions of common cols in a
	commonB []int // positions of common cols in b
}

func newJoinPlan(a, b []string) joinPlan {
	p := joinPlan{outCols: ColsUnion(a, b), common: ColsIntersect(a, b)}
	p.fromA = make([]int, len(p.outCols))
	p.fromB = make([]int, len(p.outCols))
	for i, c := range p.outCols {
		p.fromA[i] = ColIndex(a, c)
		p.fromB[i] = ColIndex(b, c)
	}
	for _, c := range p.common {
		p.commonA = append(p.commonA, ColIndex(a, c))
		p.commonB = append(p.commonB, ColIndex(b, c))
	}
	return p
}

// combineInto writes the combined row into dst (len = len(outCols)).
func (p *joinPlan) combineInto(dst, arow, brow []Value) {
	for i := range p.outCols {
		if p.fromA[i] >= 0 {
			dst[i] = arow[p.fromA[i]]
		} else {
			dst[i] = brow[p.fromB[i]]
		}
	}
}

// Join returns the natural join r ⋈ o: tuples that agree on all common
// columns, combined over the union schema. With no common columns it is the
// cartesian product. The smaller side is indexed on the common columns and
// the larger side probes. Output rows are assembled in one reusable
// scratch buffer and copied into the result's flat arena by Add.
func (r *Relation) Join(o *Relation) *Relation {
	p := newJoinPlan(r.cols, o.cols)
	out := NewRelation(p.outCols...)
	outRow := make([]Value, len(p.outCols))
	var scratch [][]Value
	if r.Len() <= o.Len() {
		ix := buildJoinIndex(r.Data(), len(r.cols), r.n, p.commonA)
		for i := 0; i < o.n; i++ {
			brow := o.RowAt(i)
			scratch = ix.matchesAt(scratch[:0], brow, p.commonB)
			for _, arow := range scratch {
				p.combineInto(outRow, arow, brow)
				out.Add(outRow)
			}
		}
	} else {
		ix := buildJoinIndex(o.Data(), len(o.cols), o.n, p.commonB)
		for i := 0; i < r.n; i++ {
			arow := r.RowAt(i)
			scratch = ix.matchesAt(scratch[:0], arow, p.commonA)
			for _, brow := range scratch {
				p.combineInto(outRow, arow, brow)
				out.Add(outRow)
			}
		}
	}
	return out
}

// Antijoin returns r ▷ o: the tuples of r that do not join with any tuple
// of o on their common columns. With no common columns, the result is r if
// o is empty and the empty relation otherwise.
func (r *Relation) Antijoin(o *Relation) *Relation {
	p := newJoinPlan(r.cols, o.cols)
	out := NewRelation(r.cols...)
	if len(p.common) == 0 {
		if o.Len() == 0 {
			return r.Clone()
		}
		return out
	}
	ix := buildJoinIndex(o.Data(), len(o.cols), o.n, p.commonB)
	for i := 0; i < r.n; i++ {
		row := r.RowAt(i)
		if !ix.containsAt(row, p.commonA) {
			out.Add(row)
		}
	}
	return out
}

// Filter returns the tuples of r satisfying cond.
func (r *Relation) Filter(cond Condition) *Relation {
	out := NewRelation(r.cols...)
	for i := 0; i < r.n; i++ {
		row := r.RowAt(i)
		if cond.Holds(r.cols, row) {
			out.Add(row)
		}
	}
	return out
}

// Rename returns r with column from renamed to to. It is an error if from
// is missing or to already exists.
func (r *Relation) Rename(from, to string) (*Relation, error) {
	if from == to {
		return r.Clone(), nil
	}
	if ColIndex(r.cols, from) < 0 {
		return nil, fmt.Errorf("core: rename: column %q not in schema %v", from, r.cols)
	}
	if ColIndex(r.cols, to) >= 0 {
		return nil, fmt.Errorf("core: rename: column %q already in schema %v", to, r.cols)
	}
	newCols := make([]string, len(r.cols))
	for i, c := range r.cols {
		if c == from {
			newCols[i] = to
		} else {
			newCols[i] = c
		}
	}
	out := NewRelation(newCols...)
	out.ReserveRows(r.n)
	// Row values must be permuted into the new sorted column order. A
	// permutation of distinct rows is distinct: nothing is re-hashed.
	projectRows(out, r, renamePerm(r.cols, out.cols, from, to), true)
	return out, nil
}

// renamePerm computes, for each output column position, the source row
// position it takes its value from when column from becomes to.
func renamePerm(oldCols, newCols []string, from, to string) []int {
	perm := make([]int, len(newCols))
	for i, c := range newCols {
		orig := c
		if c == to {
			orig = from
		}
		perm[i] = ColIndex(oldCols, orig)
	}
	return perm
}

// projectRows inserts, for every row of src, the row restricted/permuted
// to the source positions idx (one output column per entry). Rows are
// assembled in a single reusable scratch buffer and land directly in out's
// flat arena — no side slice per row. distinct says the projected rows are
// distinct by construction (idx is a permutation) and are appended without
// being hashed.
func projectRows(out *Relation, src *Relation, idx []int, distinct bool) {
	scratch := make([]Value, len(idx))
	for i := 0; i < src.n; i++ {
		row := src.RowAt(i)
		for j, p := range idx {
			scratch[j] = row[p]
		}
		if distinct {
			out.appendDistinctVals(scratch, 1)
		} else {
			out.Add(scratch)
		}
	}
}

// Drop returns r with the given columns removed (the anti-projection π̃).
// Duplicate result tuples are merged by set semantics.
func (r *Relation) Drop(cols ...string) (*Relation, error) {
	for _, c := range cols {
		if ColIndex(r.cols, c) < 0 {
			return nil, fmt.Errorf("core: drop: column %q not in schema %v", c, r.cols)
		}
	}
	keep := ColsMinus(r.cols, SortCols(cols))
	idx := make([]int, len(keep))
	for i, c := range keep {
		idx[i] = ColIndex(r.cols, c)
	}
	out := NewRelationSized(r.n, keep...)
	projectRows(out, r, idx, false)
	return out, nil
}

// Project returns r restricted to the given columns (classical projection,
// provided for frontends; µ-RA itself only uses anti-projection).
func (r *Relation) Project(cols ...string) (*Relation, error) {
	sorted := SortCols(cols)
	return r.Drop(ColsMinus(r.cols, sorted)...)
}
