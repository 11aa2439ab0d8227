package core

import "fmt"

// JoinIndex is a hash index over a column subset of a relation: key values
// → matching rows. It is the build side of every streaming hash join and
// antijoin in the engine. An Operand holds the indexes over a constant
// operand: a fixpoint builds the index over its constant part once and
// every delta iteration — and every later evaluator sharing the operand —
// probes it, instead of re-hashing the constant relation per iteration
// (§III-D's "persistent indexes").
//
// The index addresses rows by offset into the indexed relation's flat
// row-major backing array (captured at build time), not by per-row
// slices: buckets map the 64-bit FNV-1a hash of the key values to row
// indices, and probes verify candidate rows value-wise, so hash collisions
// cannot produce wrong matches. The build is a single serial pass into
// one bucket map. Probing is read-only and safe for concurrent use — the
// parallel fixpoint step probes one index from many goroutines.
type JoinIndex struct {
	at      []int   // positions of the key columns in the indexed rows
	data    []Value // flat row-major snapshot of the indexed rows
	arity   int
	nrows   int
	buckets map[uint64][]int32 // key hash → candidate rows
	keys    int                // number of distinct keys
}

// newJoinIndex indexes rel on keyCols. Every keyCol must be in rel's
// schema. The index snapshots rel's backing array: rows added to rel
// afterwards are not covered. The index always stays in memory; whoever
// holds it (an Operand) charges IndexRowBytes per row to its gauge — its
// rows alias rel, which is resident and not charged — so a large index
// pushes its task's accumulators toward eviction.
func newJoinIndex(rel *Relation, keyCols []string) (*JoinIndex, error) {
	at := make([]int, len(keyCols))
	for i, c := range keyCols {
		idx := ColIndex(rel.Cols(), c)
		if idx < 0 {
			return nil, fmt.Errorf("core: index column %q not in schema %v", c, rel.Cols())
		}
		at[i] = idx
	}
	return buildJoinIndex(rel.Data(), rel.Arity(), rel.Len(), at), nil
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

// Len returns the number of distinct keys in the index.
func (ix *JoinIndex) Len() int { return ix.keys }

// Rows returns how many rows the index covers.
func (ix *JoinIndex) Rows() int { return ix.nrows }

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
// (aligned with the indexed columns) and returns the extended slice. The appended rows
// are zero-copy views into the index's flat snapshot. Candidate rows from
// colliding hash buckets are filtered by value comparison.
func (ix *JoinIndex) Matches(dst [][]Value, key []Value) [][]Value {
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
