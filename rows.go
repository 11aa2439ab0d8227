package distmura

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Rows is a streaming result cursor. Execution has finished by the time a
// Rows exists: the interned, deduplicated result is known and counted. The
// cursor reads it where it lies — a fixpoint result through the renames
// at the query's root, in the sub-result cache's relation or in the frames
// the workers shipped to the driver; for any other root, the relation the
// engine's operand memo keeps for it or the one the driver evaluated —
// and decodes dictionary values only for the rows the caller actually
// visits.
//
// Usage mirrors database/sql:
//
//	rows, err := eng.Query(ctx, "?x <- alice knows+ ?x")
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var x string
//	    if err := rows.Scan(&x); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows is not safe for concurrent use. By the time Query returns a Rows,
// the distributed execution has already finished and released its cluster
// resources (sessions, accumulators, spill files) and its admission slot —
// an abandoned cursor can delay garbage collection of the result, but
// never leaks engine capacity; Close is still good hygiene and makes the
// deferred-close pattern of database/sql carry over. The rows a cursor
// yields are those of the graph state its query ran on: a later write
// never shows through, because the cursor reads only relations no write
// changes (a cached result or memoized root is replaced, never updated in
// place).
type Rows struct {
	dict  *core.Dict
	cols  []string
	n     int // result rows
	it    core.Iterator
	batch *core.Batch
	bi    int
	pos   int // rows Next has returned, counting the current one
	cur   []core.Value
	block []string // what Strings has not yet handed out of its render block
	stats QueryStats
	err   error
	done  bool
}

// newRows returns a cursor over it, a stream of n rows.
func newRows(dict *core.Dict, it core.Iterator, n int, stats QueryStats) *Rows {
	return &Rows{dict: dict, cols: it.Cols(), n: n, it: it, stats: stats}
}

// Columns returns the result schema.
func (r *Rows) Columns() []string { return r.cols }

// Len returns the total number of result rows (known up front: execution
// has finished and counted the interned result; only string decoding is
// lazy).
func (r *Rows) Len() int { return r.n }

// Next advances to the next row, returning false when the cursor is
// exhausted or closed. It must be called before the first Scan.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	if r.batch == nil || r.bi >= r.batch.Len() {
		r.batch = r.it.Next()
		r.bi = 0
		if r.batch == nil {
			r.done = true
			r.cur = nil
			return false
		}
	}
	r.cur = r.batch.Row(r.bi)
	r.bi++
	r.pos++
	return true
}

// Scan decodes the current row into dest, which must hold one *string or
// *core.Value per result column (in Columns order).
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return errors.New("distmura: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("distmura: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		switch d := d.(type) {
		case *string:
			*d = r.dict.String(r.cur[i])
		case *core.Value:
			*d = r.cur[i]
		default:
			return fmt.Errorf("distmura: Scan destination %d has unsupported type %T (want *string or *core.Value)", i, d)
		}
	}
	return nil
}

// renderBlockRows is how many rows one Strings block holds. At arity 2 a
// block of 255 rows is 8 160 bytes and fits the 8 KiB size class; 256 rows
// would not, because the allocator adds a header to pointer-bearing
// objects over 512 bytes.
const renderBlockRows = 255

// Strings returns the current row decoded to strings (a fresh slice the
// caller may keep).
//
// Rows are cut from one block of strings per renderBlockRows rows instead
// of being allocated one by one; each row's slice has its capacity capped,
// so appending to it copies and never clobbers another row. The block is
// sized by the rows left after the cursor's position, never by the number
// of Strings calls: a row asked for twice, or rows visited with Scan only,
// can cost an extra block or leave part of one unused, but never get a
// block too small for the row. The trade-off is retention: a row the
// caller keeps pins its whole block, at most 255 rows of strings.
func (r *Rows) Strings() []string {
	if r.cur == nil {
		return nil
	}
	arity := len(r.cur)
	if len(r.block) < arity {
		// Rows left from the current one on, this one included.
		n := min(renderBlockRows, r.n-r.pos+1)
		r.block = make([]string, n*arity)
	}
	out := r.block[:arity:arity]
	r.block = r.block[arity:]
	for i, v := range r.cur {
		out[i] = r.dict.String(v)
	}
	return out
}

// Values returns the current row's interned values as a read-only view,
// valid until the next call to Next.
func (r *Rows) Values() []core.Value { return r.cur }

// Err returns the first error encountered while iterating (always nil
// today — execution errors surface from Query/Run before a Rows exists —
// but part of the cursor contract so callers are future-proof).
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. It is idempotent and returns Err. Stats are
// complete once Close returns (they are in fact complete when the cursor
// is created, since execution finishes before the cursor is handed out).
func (r *Rows) Close() error {
	r.done = true
	r.cur = nil
	r.batch = nil
	r.block = nil
	return r.err
}

// Stats returns the query's execution statistics.
func (r *Rows) Stats() QueryStats { return r.stats }

// Collect drains the remaining rows into the pre-cursor API's *Result —
// every value decoded, everything in memory. Calling it on a fresh cursor
// reproduces the old Query behavior exactly; after some Next calls it
// returns only the rows not yet visited.
func (r *Rows) Collect() (*Result, error) {
	res := &Result{Columns: r.cols, Stats: r.stats}
	if n := r.n - r.pos; n > 0 {
		res.Rows = make([][]string, 0, n)
	}
	for r.Next() {
		res.Rows = append(res.Rows, r.Strings())
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return res, nil
}
