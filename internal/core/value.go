// Package core implements the µ-RA recursive relational algebra of
// Jachiet et al. (SIGMOD 2020) as used by Dist-µ-RA (Chlyah, Genevès,
// Layaïda — ICDE 2025): the data model (relations as sets of tuples mapping
// column names to values), the term grammar of Fig. 1 of the paper
// (union, natural join, antijoin, filter, rename, anti-projection and the
// fixpoint operator µ), the Fcond well-formedness conditions, the
// decomposition of a fixpoint into its constant and variable parts, the
// static stable-column analysis of §III-B, and a centralized semi-naive
// evaluator (Algorithm 1) that serves as the reference semantics for all
// distributed plans.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Value is the domain of µ-RA tuples. Graph node identifiers and interned
// string labels (predicates, entity names) are all represented as int64 so
// relations can store flat rows and hash them cheaply. Use a Dict to map
// external strings to Values and back.
type Value = int64

// Dict interns strings to dense Values and supports reverse lookup.
// It is safe for concurrent use.
//
// A Dict is how external identifiers (RDF entities such as "Japan",
// predicate labels such as "isLocatedIn") enter the engine: generators and
// loaders intern every string once, and query frontends intern constants at
// parse time so that the evaluator only ever compares int64s.
//
// The read side takes no lock and writes no shared memory. Intern is
// serialized under mu, which also guards ids for Intern and Lookup; it
// appends to the interned strings, publishes the slice header in strs
// only when append moved the backing array, and then publishes the new
// length in n. String, Len and Strings load n, then strs, and reslice the
// header to n. That is safe because append only writes past every length
// already published: an element below a published length is never written
// again, a grown backing array is a copy, and the array strs holds once n
// is loaded has at least n entries. A fresh string therefore costs no
// allocation of its own beyond the array's geometric growth.
type Dict struct {
	mu   sync.RWMutex
	ids  map[string]Value
	strs atomic.Pointer[[]string]
	n    atomic.Int64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]Value)}
}

// Intern returns the Value for s, assigning the next dense id on first use.
func (d *Dict) Intern(s string) Value {
	d.mu.RLock()
	if v, ok := d.ids[s]; ok {
		d.mu.RUnlock()
		return v
	}
	d.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.ids[s]; ok {
		return v
	}
	old := d.snapshot()
	strs := append(old, s)
	if len(old) == cap(old) { // append moved the array
		p := new([]string)
		*p = strs
		d.strs.Store(p)
	}
	d.n.Store(int64(len(strs)))
	v := Value(len(strs) - 1)
	d.ids[s] = v
	return v
}

// Lookup returns the Value for s without interning it.
func (d *Dict) Lookup(s string) (Value, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, ok := d.ids[s]
	return v, ok
}

// snapshot returns the interned strings as last published by Intern. The
// caller must not write to it.
func (d *Dict) snapshot() []string {
	n := d.n.Load()
	if n == 0 {
		return nil
	}
	return (*d.strs.Load())[:n]
}

// String returns the string interned as v, or a numeric placeholder if v
// was never interned (e.g. raw node ids from a synthetic graph). It takes
// no lock: every Value an Intern call has returned is in the snapshot it
// loads.
func (d *Dict) String(v Value) string {
	if strs := d.snapshot(); v >= 0 && v < Value(len(strs)) {
		return strs[v]
	}
	return fmt.Sprintf("#%d", v)
}

// Len reports how many distinct strings have been interned.
func (d *Dict) Len() int { return len(d.snapshot()) }

// Strings returns a copy of all interned strings ordered by Value.
func (d *Dict) Strings() []string {
	strs := d.snapshot()
	out := make([]string, len(strs))
	copy(out, strs)
	return out
}

// Canonical column names used throughout the engine for binary edge
// relations. The paper's examples use src/dst (Fig. 2) and src/trg (§III-B);
// we standardise on src/trg with dst as an accepted alias in loaders.
const (
	ColSrc  = "src"
	ColTrg  = "trg"
	ColPred = "pred"
)

// SortCols returns a sorted copy of cols. Relation schemas are kept in
// sorted order so that structurally equal relations have identical layouts.
func SortCols(cols []string) []string {
	out := make([]string, len(cols))
	copy(out, cols)
	sort.Strings(out)
	return out
}

// ColsEqual reports whether two sorted column lists are identical.
func ColsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ColsUnion returns the sorted union of two sorted column lists.
func ColsUnion(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// ColsIntersect returns the sorted intersection of two sorted column lists.
func ColsIntersect(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// ColsMinus returns the sorted difference a \ b of two sorted column lists.
func ColsMinus(a, b []string) []string {
	var out []string
	j := 0
	for _, c := range a {
		for j < len(b) && b[j] < c {
			j++
		}
		if j < len(b) && b[j] == c {
			continue
		}
		out = append(out, c)
	}
	return out
}

// ColIndex returns the position of col in cols, or -1.
func ColIndex(cols []string, col string) int {
	for i, c := range cols {
		if c == col {
			return i
		}
	}
	return -1
}
