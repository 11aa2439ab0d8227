package datalog

import (
	"encoding/binary"

	"repro/internal/core"
)

// Rel is a positional relation (Datalog predicates have no column names).
type Rel struct {
	arity   int
	rows    [][]core.Value
	set     map[string]struct{}
	indexes map[uint32]map[string][][]core.Value // bound-position bitmask → key → rows
}

// NewRel returns an empty relation of the given arity.
func NewRel(arity int) *Rel {
	return &Rel{arity: arity, set: make(map[string]struct{})}
}

// Arity returns the number of argument positions.
func (r *Rel) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Rel) Len() int { return len(r.rows) }

// Rows returns the stored tuples (read-only).
func (r *Rel) Rows() [][]core.Value { return r.rows }

// Add inserts a tuple; reports whether it was new. Indexes are invalidated.
func (r *Rel) Add(row []core.Value) bool {
	k := core.RowKey(row)
	if _, dup := r.set[k]; dup {
		return false
	}
	r.set[k] = struct{}{}
	r.rows = append(r.rows, row)
	r.indexes = nil
	return true
}

// Has reports membership.
func (r *Rel) Has(row []core.Value) bool {
	_, ok := r.set[core.RowKey(row)]
	return ok
}

func maskKey(row []core.Value, positions []int) string {
	b := make([]byte, 8*len(positions))
	for i, p := range positions {
		binary.BigEndian.PutUint64(b[i*8:], uint64(row[p]))
	}
	return string(b)
}

// Match returns the rows whose values at the given positions equal vals,
// using a lazily built hash index.
func (r *Rel) Match(positions []int, vals []core.Value) [][]core.Value {
	if len(positions) == 0 {
		return r.rows
	}
	var mask uint32
	for _, p := range positions {
		mask |= 1 << uint(p)
	}
	if r.indexes == nil {
		r.indexes = make(map[uint32]map[string][][]core.Value)
	}
	ix, ok := r.indexes[mask]
	if !ok {
		ix = make(map[string][][]core.Value, len(r.rows))
		for _, row := range r.rows {
			k := maskKey(row, positions)
			ix[k] = append(ix[k], row)
		}
		r.indexes[mask] = ix
	}
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(b[i*8:], uint64(v))
	}
	return ix[string(b)]
}

// PosCols returns canonical column names for a positional relation of the
// given arity: p00, p01, ... (sorted order equals positional order for
// arity ≤ 100).
func PosCols(arity int) []string {
	out := make([]string, arity)
	for i := range out {
		out[i] = posColName(i)
	}
	return out
}

func posColName(i int) string {
	return "p" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// DB maps predicate names to relations.
type DB map[string]*Rel
