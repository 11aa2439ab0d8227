package core

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// This file is the streaming data plane of the evaluator: µ-RA operators
// implemented as composable iterators over column-aligned row batches,
// replacing the seed's stage-by-stage materialization of a full Relation
// per operator. Operator output batches come from a BatchPool the pipeline
// builder owns, so a fixpoint re-uses one iteration's buffers for the next.
//
// Set discipline — a tuple is deduplicated exactly once, at the sink.
//
//   - Sets by construction: a scan of a relation or of accumulator delta
//     windows, a constant tuple, and filter, rename, join and antijoin over
//     a set probe (the build side is a relation, hence a set; a combined
//     row determines the pair it came from). IsSet reports it.
//   - Anti-projection and union are the two operators that can introduce
//     duplicates. In the interior of a pipeline they carry an inline
//     distinct, so everything above them is a set again. At the root of a
//     pipeline whose sink deduplicates — a fixpoint Accumulator, a shuffle
//     filter, Materialize — they are built without it (distinct=false):
//     the projected or concatenated rows go straight to the sink, which
//     performs the one set operation Algorithm 1 asks for per derived
//     tuple (new = φ(new) \ X; X = X ∪ new).
//   - Sinks observe the stream: Materialize block-appends a set stream
//     with the dedup set deferred (Relation.AppendDistinct) and hashes the
//     rows of a bag stream once (Relation.Add).
//
// Past the sink, set-ness travels with the data instead of being
// re-established: an Accumulator is shipped or materialized by block
// copy, the frames of provably disjoint fixpoint partitions are appended
// on the driver, and duplicated frames are dropped by their ordinal, not
// absorbed by re-hashing (see ARCHITECTURE.md, "Set discipline").

// BatchBudgetValues is the per-batch value budget: batches target about
// 64 KiB of Values (8192 × 8 bytes), a cache-friendly unit that amortizes
// per-batch overhead without bloating pipeline buffers.
const BatchBudgetValues = 8192

// Batch row-target clamps: even very wide rows get a few dozen rows per
// batch, and narrow rows stop at the budget itself.
const (
	minBatchRows = 64
	maxBatchRows = BatchBudgetValues
)

// BatchRowsFor returns the soft row target for batches of the given arity:
// the row count that lands a batch near BatchBudgetValues, clamped to
// [minBatchRows, maxBatchRows]. Operators may emit slightly larger batches
// (a join flushes all matches of its current probe row) but never
// unboundedly larger.
func BatchRowsFor(arity int) int {
	if arity <= 0 {
		return maxBatchRows
	}
	rows := BatchBudgetValues / arity
	if rows < minBatchRows {
		return minBatchRows
	}
	return rows
}

// Batch is a column-aligned batch of rows over one schema, stored as a
// single flat row-major value buffer. Row(i) returns a view into the
// buffer; views are only valid until the producing iterator's next Next
// call unless the batch is known to be freshly allocated (e.g. decoded
// from the wire). Like the iterators that produce them, batches are
// single-owner: reading one from several goroutines is safe only while no
// one appends.
type Batch struct {
	arity  int
	n      int
	vals   []Value
	target int // soft row target (arity-dependent byte budget)
}

// NewBatch returns an empty batch for rows of the given arity.
func NewBatch(arity int) *Batch {
	return &Batch{arity: arity, target: BatchRowsFor(arity)}
}

// NewBatchValues wraps an existing flat buffer of n rows of the given
// arity (used by transports decoding wire frames).
func NewBatchValues(arity, n int, vals []Value) *Batch {
	return &Batch{arity: arity, n: n, vals: vals, target: BatchRowsFor(arity)}
}

// BatchFromRows flattens rows (each of the given arity) into a batch.
func BatchFromRows(arity int, rows [][]Value) *Batch {
	b := NewBatch(arity)
	b.vals = make([]Value, 0, arity*len(rows))
	b.n = len(rows)
	for _, row := range rows {
		b.vals = append(b.vals, row...)
	}
	return b
}

// Arity returns the number of columns per row.
func (b *Batch) Arity() int { return b.arity }

// Sub returns rows [lo, hi) of b as a zero-copy view sharing b's buffer —
// the unit the cluster frame encoder ships, so a large logical batch
// leaves as budget-sized wire frames without re-flattening.
func (b *Batch) Sub(lo, hi int) *Batch {
	a := b.arity
	return &Batch{arity: a, n: hi - lo, vals: b.vals[lo*a : hi*a : hi*a], target: b.target}
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Values returns the flat row-major value buffer (read-only).
func (b *Batch) Values() []Value { return b.vals }

// Row returns a view of row i, valid as described on Batch.
func (b *Batch) Row(i int) []Value {
	return b.vals[i*b.arity : (i+1)*b.arity : (i+1)*b.arity]
}

// AppendRow appends a copy of row; its length must equal the batch arity
// (a mismatch would silently misalign every later Row view).
func (b *Batch) AppendRow(row []Value) {
	if len(row) != b.arity {
		panic(fmt.Sprintf("core: batch arity %d does not match row length %d", b.arity, len(row)))
	}
	b.vals = append(b.vals, row...)
	b.n++
}

// AppendBatch appends a copy of o's rows; o's arity must equal the
// batch's.
func (b *Batch) AppendBatch(o *Batch) {
	if o.arity != b.arity {
		panic(fmt.Sprintf("core: batch arity %d does not match appended arity %d", b.arity, o.arity))
	}
	b.vals = append(b.vals, o.vals...)
	b.n += o.n
}

// appendEmptyRow extends the batch by one uninitialized row (a reused
// buffer's previous contents) and returns a writable view of it; callers
// write every position.
func (b *Batch) appendEmptyRow() []Value {
	start := len(b.vals)
	end := start + b.arity
	if end > cap(b.vals) {
		b.vals = slices.Grow(b.vals, b.arity)
	}
	b.vals = b.vals[:end]
	b.n++
	return b.vals[start:end:end]
}

// reset empties the batch keeping its buffer.
func (b *Batch) reset() {
	b.vals = b.vals[:0]
	b.n = 0
}

// full reports whether the batch reached the soft size target.
func (b *Batch) full() bool { return b.n >= b.target }

// BatchPool is a free list of operator output batches owned by whoever
// builds pipelines (an Evaluator): operators take their output buffer from
// it, and the owner recycles everything handed out since a mark once those
// pipelines are drained, so the next round of pipelines reuses the same
// buffers instead of growing fresh ones. A nil pool allocates and never
// recycles. Single-owner: get, Mark and Recycle run on the builder's
// goroutine; the batches themselves belong to their pipelines in between.
type BatchPool struct {
	free []*Batch
	live []*Batch
	// allocs counts the batches the pool had to allocate because the free
	// list was empty — the figure the allocation tests pin.
	allocs int
}

// get returns an empty batch for rows of the given arity.
func (p *BatchPool) get(arity int) *Batch {
	if p == nil {
		return NewBatch(arity)
	}
	var b *Batch
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free = p.free[:n-1]
		*b = Batch{arity: arity, vals: b.vals[:0], target: BatchRowsFor(arity)}
	} else {
		b = NewBatch(arity)
		p.allocs++
	}
	p.live = append(p.live, b)
	return b
}

// Mark returns the recycle point for the batches handed out from now on.
func (p *BatchPool) Mark() int { return len(p.live) }

// Recycle returns every batch handed out since mark to the free list. The
// pipelines holding them must be fully drained.
func (p *BatchPool) Recycle(mark int) {
	p.free = append(p.free, p.live[mark:]...)
	p.live = p.live[:mark]
}

// Iterator streams a relation-valued expression as batches. Next returns
// nil when the stream is exhausted; the returned batch is valid only until
// the following Next call.
//
// Concurrency: an iterator is single-owner — one goroutine drives Next for
// the pipeline's lifetime. Parallelism happens *across* pipelines (many
// iterators over shared read-only inputs), never inside one: the indexes
// and relations a pipeline probes are safe to share, the pipeline state is
// not.
type Iterator interface {
	// Cols returns the stream's schema (sorted).
	Cols() []string
	// Next returns the next non-empty batch, or nil at end of stream.
	Next() *Batch
}

// --- sources -----------------------------------------------------------------

// relationIter scans a materialized relation with zero-copy batches:
// every emitted batch aliases a window of the relation's flat backing
// array — no per-batch flatten, no per-row copy. It remembers its source
// so join planning can index the relation instead of draining the stream.
type relationIter struct {
	rel  *Relation
	pos  int // next unemitted row
	step int
	out  Batch // reused view header
}

// ScanRelation streams rel. The scanned relation must not be mutated
// while the stream is consumed (an insert may move the backing array).
func ScanRelation(rel *Relation) Iterator {
	return &relationIter{rel: rel, step: BatchRowsFor(rel.Arity())}
}

func (it *relationIter) Cols() []string { return it.rel.Cols() }

func (it *relationIter) Next() *Batch {
	n := it.rel.Len()
	if it.pos >= n {
		return nil
	}
	hi := it.pos + it.step
	if hi > n {
		hi = n
	}
	a := it.rel.Arity()
	it.out = Batch{
		arity:  a,
		n:      hi - it.pos,
		vals:   it.rel.data[it.pos*a : hi*a : hi*a],
		target: it.step,
	}
	it.pos = hi
	return &it.out
}

// deltaSource is one fixpoint iteration's delta — init, or the rows the
// accumulator's shards gained between two marks — cut into batch-sized
// zero-copy windows behind shared cursors. Every pipeline built for one φ
// branch scans it through a deltaIter of its own, and each window is
// handed to exactly one of them: a worker pool splits the delta at batch
// granularity with one pipeline per worker, instead of one pipeline per
// shard window. The k-th occurrence of the recursion variable in a
// pipeline shares cursor k with the k-th occurrence in its siblings, so a
// (non-linear) branch scanning the delta twice still sees all of it twice.
type deltaSource struct {
	cols    []string
	views   []*Relation
	wins    []Batch
	cursors []*atomic.Int64
	occ     int // occurrences streamed so far in the pipeline being built
}

// newDeltaSource windows the given views (same schema, rows distinct
// across views).
func newDeltaSource(cols []string, views []*Relation) *deltaSource {
	src := &deltaSource{cols: cols, views: views}
	step := BatchRowsFor(len(cols))
	n := 0
	for _, v := range views {
		n += (v.Len() + step - 1) / step
	}
	src.wins = make([]Batch, 0, n) // one allocation however many windows
	for _, v := range views {
		for lo := 0; lo < v.Len(); lo += step {
			src.wins = append(src.wins, *v.BatchRange(lo, min(lo+step, v.Len())))
		}
	}
	return src
}

// nextPipeline starts the occurrence count of a new sibling pipeline.
func (s *deltaSource) nextPipeline() { s.occ = 0 }

// scan returns the iterator of the next occurrence in the pipeline being
// built.
func (s *deltaSource) scan() Iterator {
	if s.occ == len(s.cursors) {
		s.cursors = append(s.cursors, new(atomic.Int64))
	}
	it := &deltaIter{src: s, next: s.cursors[s.occ]}
	s.occ++
	return it
}

// relation coalesces the delta into one relation, for the rare operator
// that needs it materialized (a join building on the recursion variable).
func (s *deltaSource) relation() *Relation {
	out := NewRelation(s.cols...)
	for _, v := range s.views {
		out.AppendDistinct(v.AsBatch())
	}
	return out
}

type deltaIter struct {
	src  *deltaSource
	next *atomic.Int64
}

func (it *deltaIter) Cols() []string { return it.src.cols }

func (it *deltaIter) Next() *Batch {
	i := int(it.next.Add(1)) - 1
	if i >= len(it.src.wins) {
		return nil
	}
	return &it.src.wins[i]
}

// singletonIter yields one constant row (the {c→v} term).
type singletonIter struct {
	cols []string
	row  []Value
	done bool
}

func (it *singletonIter) Cols() []string { return it.cols }

func (it *singletonIter) Next() *Batch {
	if it.done {
		return nil
	}
	it.done = true
	b := NewBatch(len(it.row))
	b.AppendRow(it.row)
	return b
}

// emptyIter yields nothing.
type emptyIter struct{ cols []string }

func (it *emptyIter) Cols() []string { return it.cols }
func (it *emptyIter) Next() *Batch   { return nil }

// --- stateless row transforms ------------------------------------------------

// filterIter streams the rows of in satisfying cond.
type filterIter struct {
	in   Iterator
	cond Condition
	out  *Batch
}

// FilterStream applies σ[cond] to in.
func FilterStream(in Iterator, cond Condition, pool *BatchPool) Iterator {
	return &filterIter{in: in, cond: cond, out: pool.get(len(in.Cols()))}
}

func (it *filterIter) Cols() []string { return it.in.Cols() }

func (it *filterIter) Next() *Batch {
	cols := it.in.Cols()
	it.out.reset()
	for {
		b := it.in.Next()
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			if it.cond.Holds(cols, row) {
				it.out.AppendRow(row)
			}
		}
		if it.out.full() {
			break
		}
	}
	if it.out.Len() == 0 {
		return nil
	}
	return it.out
}

// projectInto appends, for every row of b, the row restricted/permuted to
// the source positions idx (one output column per entry) to out.
func projectInto(out, b *Batch, idx []int) {
	for i := 0; i < b.Len(); i++ {
		row := b.Row(i)
		dst := out.appendEmptyRow()
		for j, p := range idx {
			dst[j] = row[p]
		}
	}
}

// renameIter permutes rows into the sorted order of the renamed schema.
type renameIter struct {
	in   Iterator
	cols []string
	perm []int // output position → input position; nil hands batches on as they are
	out  *Batch
}

// RenameStream applies ρ[from→to] to in, after validating it against the
// schema (from present, to absent).
func RenameStream(in Iterator, from, to string, pool *BatchPool) (Iterator, error) {
	if from == to {
		return in, nil
	}
	oldCols := in.Cols()
	if ColIndex(oldCols, from) < 0 {
		return nil, fmt.Errorf("core: rename: column %q not in schema %v", from, oldCols)
	}
	if ColIndex(oldCols, to) >= 0 {
		return nil, fmt.Errorf("core: rename: column %q already in schema %v", to, oldCols)
	}
	newCols := make([]string, len(oldCols))
	for i, c := range oldCols {
		if c == from {
			newCols[i] = to
		} else {
			newCols[i] = c
		}
	}
	newCols = SortCols(newCols)
	return &renameIter{
		in:   in,
		cols: newCols,
		perm: renamePerm(oldCols, newCols, from, to),
		out:  pool.get(len(newCols)),
	}, nil
}

// PeelRenames splits t into the chain of renames at its root, outermost
// first, and the term below the chain.
func PeelRenames(t Term) (chain []*Rename, base Term) {
	for {
		r, ok := t.(*Rename)
		if !ok {
			return chain, t
		}
		chain = append(chain, r)
		t = r.T
	}
}

// RenamedStream applies a chain of renames, outermost first as PeelRenames
// returns it, to in as one composed column permutation: when that is the
// identity the stream hands on in's batches under the renamed schema
// without touching a row, and otherwise it permutes each batch into one
// reused output batch.
func RenamedStream(in Iterator, chain []*Rename) (Iterator, error) {
	names := slices.Clone(in.Cols())
	for i := len(chain) - 1; i >= 0; i-- {
		r := chain[i]
		if r.From == r.To {
			continue
		}
		at := slices.Index(names, r.From)
		if at < 0 {
			return nil, fmt.Errorf("core: rename: column %q not in schema %v", r.From, SortCols(names))
		}
		if slices.Contains(names, r.To) {
			return nil, fmt.Errorf("core: rename: column %q already in schema %v", r.To, SortCols(names))
		}
		names[at] = r.To
	}
	cols := SortCols(names)
	perm := make([]int, len(cols))
	identity := true
	for j, c := range cols {
		perm[j] = slices.Index(names, c)
		identity = identity && perm[j] == j
	}
	it := &renameIter{in: in, cols: cols}
	if !identity {
		it.perm, it.out = perm, NewBatch(len(cols))
	}
	return it, nil
}

func (it *renameIter) Cols() []string { return it.cols }

func (it *renameIter) Next() *Batch {
	b := it.in.Next()
	if b == nil || it.perm == nil {
		return b
	}
	it.out.reset()
	projectInto(it.out, b, it.perm)
	return it.out
}

// dropIter anti-projects columns away. Dropping columns merges tuples, so
// with distinct set it deduplicates inline (rows accumulate in seen, one of
// the two operators that must to keep an interior stream a set); without,
// it is the root of a pipeline whose sink deduplicates, and the projected
// rows of each input batch go out as they are.
type dropIter struct {
	in   Iterator
	cols []string
	keep []int // positions of kept columns in the input row

	out *Batch // projected rows of the current input batch (!distinct)

	seen   *Relation // distinct rows so far (distinct)
	narrow []Value   // projection scratch
	pos    int
	target int
	view   Batch // reused view header over seen's backing array
}

// DropStream applies π̃[cols] to in, after validating the columns against
// the schema; distinct selects the inline distinct (see dropIter).
func DropStream(in Iterator, cols []string, distinct bool, pool *BatchPool) (Iterator, error) {
	for _, c := range cols {
		if ColIndex(in.Cols(), c) < 0 {
			return nil, fmt.Errorf("core: drop: column %q not in schema %v", c, in.Cols())
		}
	}
	keepCols := ColsMinus(in.Cols(), SortCols(cols))
	keep := make([]int, len(keepCols))
	for i, c := range keepCols {
		keep[i] = ColIndex(in.Cols(), c)
	}
	it := &dropIter{in: in, cols: keepCols, keep: keep}
	if distinct {
		it.seen = NewRelation(keepCols...)
		it.narrow = make([]Value, len(keep))
		it.target = BatchRowsFor(len(keepCols))
	} else {
		it.out = pool.get(len(keepCols))
	}
	return it, nil
}

func (it *dropIter) Cols() []string { return it.cols }

func (it *dropIter) Next() *Batch {
	if it.seen == nil {
		b := it.in.Next()
		if b == nil {
			return nil
		}
		it.out.reset()
		projectInto(it.out, b, it.keep)
		return it.out
	}
	// Distinct rows accumulate in it.seen's flat arena; emitted batches
	// are zero-copy views of the newly accumulated window, valid until the
	// following Next call (a later insert may move the arena).
	for {
		b := it.in.Next()
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			for j, p := range it.keep {
				it.narrow[j] = row[p]
			}
			it.seen.Add(it.narrow)
		}
		if it.seen.Len()-it.pos >= it.target {
			break
		}
	}
	return drainSeen(it.seen, &it.pos, &it.view)
}

// drainSeen emits the rows of seen accumulated past *pos as a zero-copy
// view batch, advancing *pos.
func drainSeen(seen *Relation, pos *int, out *Batch) *Batch {
	n := seen.Len()
	if *pos >= n {
		return nil
	}
	a := seen.Arity()
	*out = Batch{
		arity:  a,
		n:      n - *pos,
		vals:   seen.data[*pos*a : n*a : n*a],
		target: BatchRowsFor(a),
	}
	*pos = n
	return out
}

// unionIter concatenates two streams (which may overlap). With distinct
// set it deduplicates inline like dropIter; without, it is at the root of
// a pipeline whose sink deduplicates and hands its inputs' batches through
// untouched.
type unionIter struct {
	l, r   Iterator
	cols   []string
	seen   *Relation // nil when !distinct
	pos    int
	target int
	view   Batch // reused view header over seen's backing array
}

// UnionStream streams l ∪ r (schemas must agree); distinct selects the
// inline distinct (see unionIter).
func UnionStream(l, r Iterator, distinct bool) Iterator {
	if !ColsEqual(l.Cols(), r.Cols()) {
		panic("core: union stream schema mismatch")
	}
	it := &unionIter{l: l, r: r, cols: l.Cols()}
	if distinct {
		it.seen = NewRelation(it.cols...)
		it.target = BatchRowsFor(len(it.cols))
	}
	return it
}

func (it *unionIter) Cols() []string { return it.cols }

// nextInput returns the next batch of l, then of r, then nil.
func (it *unionIter) nextInput() *Batch {
	for it.l != nil {
		if b := it.l.Next(); b != nil {
			return b
		}
		it.l, it.r = it.r, nil
	}
	return nil
}

func (it *unionIter) Next() *Batch {
	if it.seen == nil {
		return it.nextInput()
	}
	for it.seen.Len()-it.pos < it.target {
		b := it.nextInput()
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			it.seen.Add(b.Row(i))
		}
	}
	return drainSeen(it.seen, &it.pos, &it.view)
}

// --- hash join / antijoin ----------------------------------------------------

// joinIter probes a JoinIndex with a stream: for each probe row, matching
// build rows are combined over the union schema. probeAt lists the probe
// row positions of the join columns, aligned with the index's key. The
// iterator carries its position inside the current probe batch and match
// list across Next calls, so a skewed key with a huge fanout spreads over
// many output batches instead of inflating one.
type joinIter struct {
	probe   Iterator
	ix      *JoinIndex
	plan    joinPlan
	probeAt []int
	out     *Batch

	cur     *Batch    // current probe batch (nil before first/after last)
	row     int       // next unprocessed row in cur
	prow    []Value   // probe row whose matches are being emitted
	scratch [][]Value // matches of prow
	mi      int       // next unemitted match in scratch
	done    bool
}

// JoinStream joins the probe stream against an index built over the build
// side's common columns. buildCols is the build side's schema.
func JoinStream(probe Iterator, ix *JoinIndex, buildCols []string, pool *BatchPool) Iterator {
	plan := newJoinPlan(probe.Cols(), buildCols)
	return &joinIter{
		probe:   probe,
		ix:      ix,
		plan:    plan,
		probeAt: plan.commonA,
		out:     pool.get(len(plan.outCols)),
	}
}

func (it *joinIter) Cols() []string { return it.plan.outCols }

func (it *joinIter) Next() *Batch {
	if it.done {
		return nil
	}
	it.out.reset()
	for {
		// Flush pending matches of the current probe row; stop at the
		// batch bound even mid-row (prow stays valid: the probe iterator
		// is not advanced until its matches are drained).
		for it.mi < len(it.scratch) {
			if it.out.full() {
				return it.out
			}
			it.plan.combineInto(it.out.appendEmptyRow(), it.prow, it.scratch[it.mi])
			it.mi++
		}
		if it.cur == nil || it.row >= it.cur.Len() {
			it.cur = it.probe.Next()
			it.row = 0
			if it.cur == nil {
				it.done = true
				if it.out.Len() == 0 {
					return nil
				}
				return it.out
			}
		}
		it.prow = it.cur.Row(it.row)
		it.row++
		it.scratch = it.ix.matchesAt(it.scratch[:0], it.prow, it.probeAt)
		it.mi = 0
	}
}

// antijoinIter streams the probe rows that find no match in the index.
type antijoinIter struct {
	probe   Iterator
	ix      *JoinIndex
	probeAt []int
	out     *Batch
}

// AntijoinStream streams probe ▷ build where ix indexes the build side on
// the common columns and probeAt locates those columns in probe rows. The
// no-common-columns case must be handled by the caller (the result is all
// of probe or nothing, depending on build emptiness).
func AntijoinStream(probe Iterator, ix *JoinIndex, probeAt []int, pool *BatchPool) Iterator {
	return &antijoinIter{probe: probe, ix: ix, probeAt: probeAt, out: pool.get(len(probe.Cols()))}
}

func (it *antijoinIter) Cols() []string { return it.probe.Cols() }

func (it *antijoinIter) Next() *Batch {
	it.out.reset()
	for !it.out.full() {
		b := it.probe.Next()
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			if !it.ix.containsAt(row, it.probeAt) {
				it.out.AppendRow(row)
			}
		}
	}
	if it.out.Len() == 0 {
		return nil
	}
	return it.out
}

// semijoinIter streams the probe rows whose values on the build
// relation's columns form (keep) or do not form (!keep) one of its rows.
type semijoinIter struct {
	probe Iterator
	build *Relation
	at    []int   // probe positions of the build columns, in build order
	key   []Value // projection scratch
	keep  bool
	out   *Batch
}

// SemijoinStream streams probe ⋉ build (keep) or probe ▷ build (!keep)
// for a build relation whose columns all occur in probe: every build
// column is a join key, so the build relation's own dedup set answers each
// probe and no JoinIndex is built. A join whose build side adds no column
// is such a semijoin (an intersection when the schemas agree).
func SemijoinStream(probe Iterator, build *Relation, keep bool, pool *BatchPool) Iterator {
	at := make([]int, build.Arity())
	for i, c := range build.Cols() {
		at[i] = ColIndex(probe.Cols(), c)
	}
	return &semijoinIter{probe: probe, build: build, at: at, key: make([]Value, len(at)),
		keep: keep, out: pool.get(len(probe.Cols()))}
}

func (it *semijoinIter) Cols() []string { return it.probe.Cols() }

func (it *semijoinIter) Next() *Batch {
	it.out.reset()
	for !it.out.full() {
		b := it.probe.Next()
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			for j, p := range it.at {
				it.key[j] = row[p]
			}
			if it.build.Has(it.key) == it.keep {
				it.out.AppendRow(row)
			}
		}
	}
	if it.out.Len() == 0 {
		return nil
	}
	return it.out
}

// --- sinks -------------------------------------------------------------------

// IsSet reports whether a stream is duplicate-free by construction (see the
// set discipline at the top of this file). A false answer is always safe:
// the sink then deduplicates.
func IsSet(it Iterator) bool {
	switch n := it.(type) {
	case *relationIter, *deltaIter, *singletonIter, *emptyIter:
		return true
	case *filterIter:
		return IsSet(n.in)
	case *renameIter:
		return IsSet(n.in)
	case *dropIter:
		return n.seen != nil
	case *unionIter:
		return n.seen != nil
	case *joinIter:
		return IsSet(n.probe)
	case *antijoinIter:
		return IsSet(n.probe)
	case *semijoinIter:
		return IsSet(n.probe)
	}
	return false
}

// Drain adds every streamed row into dst (set semantics, values copied
// into dst's flat backing array) and returns the number of rows added.
// dst must not be a source relation of the pipeline: scans are zero-copy
// views, and inserting into a scanned relation would move its storage
// mid-stream.
func Drain(it Iterator, dst *Relation) int {
	added := 0
	for b := it.Next(); b != nil; b = it.Next() {
		added += dst.AddBatch(b)
	}
	return added
}

// exactRows returns the number of rows a stream will yield when that is
// known without running it (a scan, through renames), else -1.
func exactRows(it Iterator) int {
	switch n := it.(type) {
	case *relationIter:
		return n.rel.Len() - n.pos
	case *renameIter:
		return exactRows(n.in)
	}
	return -1
}

// Materialize collects a stream into a fresh Relation, deduplicating only
// when the stream can hold duplicates: a set stream is block-appended with
// the dedup set deferred, into storage sized up front when the row count is
// known.
func Materialize(it Iterator) *Relation {
	out := NewRelation(it.Cols()...)
	if !IsSet(it) {
		Drain(it, out)
		return out
	}
	if n := exactRows(it); n > 0 {
		out.ReserveRows(n)
	}
	for b := it.Next(); b != nil; b = it.Next() {
		out.AppendDistinct(b)
	}
	return out
}
