package core

import (
	"container/list"
	"strings"
	"sync"
)

// Operand is a constant operand of joins and antijoins — a relation whose
// rows do not change while it is held — together with the join indexes
// built over it, by key columns. It is the engine's one unit of operand
// reuse (§III-D's "persistent indexes"), kept by three owners:
//
//   - an evaluator keeps the operands of its own run (Evaluator.memo):
//     the relations bound in its environment and, while a fixpoint runs,
//     the subterms that are constant with respect to it, so every
//     semi-naive iteration probes the same index;
//   - a sealed relation keeps the operands derived from it alone
//     (Relation.Seal), shared by every evaluator that reads it — a
//     worker's resident broadcast copy across fixpoints and queries;
//   - the engine keeps what the driver derives from its graph, per graph
//     state, across queries (OperandStore): operands, fixpoint seeds,
//     query roots and µ results.
//
// The last two are OperandMemos, under one admission rule.
//
// An evaluator's operand for a shared one has the shared one as parent: it
// takes its indexes from there, so each index is built once per shared
// operand. Each holder charges its own gauge IndexRowBytes per row of every
// index it holds, and Release returns the charge, so a task gauge carries
// the same charge whether the task built an index or probes a shared one.
// Safe for concurrent use; index builds are serialized per operand, so
// concurrent holders never build the same index twice.
type Operand struct {
	rel    *Relation
	parent *Operand

	mu    sync.Mutex
	ixs   map[string]*JoinIndex // by joinIndexKey of the key columns
	gauge *MemGauge             // charged for ixs; nil after Release
	bytes int64                 // charged to gauge
}

// NewOperand returns an operand over rel, which must not change while the
// operand is in use, whose indexes are charged to g (nil: uncharged).
func NewOperand(rel *Relation, g *MemGauge) *Operand {
	return &Operand{rel: rel, gauge: g}
}

// Rel returns the operand's relation, which must not be modified.
func (o *Operand) Rel() *Relation { return o.rel }

func joinIndexKey(cols []string) string { return strings.Join(cols, "\x00") }

// index returns the operand's join index on cols: one it holds, one its
// parent holds or builds, or one it builds itself. built reports whether
// this call built it. The first time the operand holds an index it charges
// its gauge for it.
func (o *Operand) index(cols []string) (ix *JoinIndex, built bool, err error) {
	k := joinIndexKey(cols)
	o.mu.Lock()
	defer o.mu.Unlock()
	if ix := o.ixs[k]; ix != nil {
		return ix, false, nil
	}
	if o.parent != nil {
		ix, built, err = o.parent.index(cols)
	} else {
		ix, err = newJoinIndex(o.rel, cols)
		built = true
	}
	if err != nil {
		return nil, false, err
	}
	if o.ixs == nil {
		o.ixs = make(map[string]*JoinIndex, 1)
	}
	o.ixs[k] = ix
	if o.gauge != nil {
		n := int64(ix.Rows()) * IndexRowBytes
		o.gauge.Charge(n)
		o.bytes += n
	}
	return ix, built, nil
}

// Release returns the indexes' gauge charge and detaches the gauge:
// indexes built afterwards are charged to nothing. Holders still probing
// the operand may go on doing so. Calling it more than once is harmless.
func (o *Operand) Release() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.gauge.Release(o.bytes)
	o.gauge, o.bytes = nil, 0
}

// OperandStore is a memo of constant operands that outlives the evaluator
// consulting it: the engine's, which keeps the operands derived from the
// driver's graph across queries.
type OperandStore interface {
	// Operand returns the operand t denotes, calling derive to compute
	// its relation on a miss. A nil operand means the store does not keep
	// t (derive was not called); the evaluator then derives t itself.
	Operand(t Term, derive func() (*Relation, error)) (*Operand, error)
}

// OperandMemo keeps constant operands, with their join indexes, for the
// evaluators that come and go over one graph state: a sealed relation's
// memo of the operands derived from it alone (Relation.Seal), and the
// engine's memo of the operands derived from the driver's graph. One
// admission rule governs both. Every newcomer is kept. Its rows, priced as
// AccRowBytes, and each of its indexes as it is built are charged to the
// memo's standalone gauge. While the gauge is over budget, the least
// recently used entries are evicted, never the one just kept or served. A
// budget of 0 meters without evicting.
//
// Keys are the canonical text of the term that derives the operand. Each
// entry is stamped with the state it was derived from (a sealed
// relation's entries with ""): an entry is served only to a caller at the
// same state, and dropped when a caller at another state asks for its
// key. Safe for concurrent use.
type OperandMemo struct {
	mu      sync.Mutex
	m       map[string]*memoEntry
	lru     list.List // of *memoEntry; front = most recently used
	gauge   *MemGauge
	hits    int64
	misses  int64
	evicted int64
}

type memoEntry struct {
	key   string
	stamp string
	op    *Operand
	bytes int64 // the rows' charge; the operand carries its indexes'
	elem  *list.Element
}

// NewOperandMemo returns an empty memo budgeted at budgetBytes on a gauge
// of its own (0 or negative: metered, never evicted). The gauge is
// standalone rather than a task gauge's child: memo residency outlives
// every task, and mirrored into a task's budget it would push each later
// task toward spilling.
func NewOperandMemo(budgetBytes int64) *OperandMemo {
	return &OperandMemo{m: make(map[string]*memoEntry), gauge: NewMemGauge(budgetBytes, "")}
}

// Get returns the operand kept under key at the state stamp names, as the
// most recently used, or nil. An entry of another state is dropped.
func (m *OperandMemo) Get(key, stamp string) *Operand {
	m.mu.Lock()
	defer m.mu.Unlock()
	en := m.m[key]
	if en == nil {
		return nil
	}
	if en.stamp != stamp {
		m.removeLocked(en)
		return nil
	}
	m.hits++
	m.lru.MoveToFront(en.elem)
	m.evictOverBudgetLocked(en)
	return en.op
}

// Put keeps rel, derived at the state stamp names, as the operand under
// key and returns the operand to use: the one kept there already at the
// same state (another evaluator derived it meanwhile), else the new one.
// The rows are charged now, each index as it is built.
func (m *OperandMemo) Put(key, stamp string, rel *Relation) *Operand {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.misses++
	if cur := m.m[key]; cur != nil {
		if cur.stamp == stamp {
			m.lru.MoveToFront(cur.elem)
			return cur.op
		}
		m.removeLocked(cur)
	}
	en := &memoEntry{key: key, stamp: stamp, op: NewOperand(rel, m.gauge), bytes: AccRowBytes(rel.Arity()) * int64(rel.Len())}
	m.gauge.Charge(en.bytes)
	en.elem = m.lru.PushFront(en)
	m.m[key] = en
	m.evictOverBudgetLocked(en)
	return en.op
}

// evictOverBudgetLocked evicts from the cold end until the gauge is back
// under budget or only keep is left.
func (m *OperandMemo) evictOverBudgetLocked(keep *memoEntry) {
	for el := m.lru.Back(); el != nil && m.gauge.Over(); {
		prev := el.Prev()
		if en := el.Value.(*memoEntry); en != keep {
			m.removeLocked(en)
			m.evicted++
		}
		el = prev
	}
}

// removeLocked unlinks en and returns its charges. Evaluators still
// probing its operand go on doing so.
func (m *OperandMemo) removeLocked(en *memoEntry) {
	delete(m.m, en.key)
	m.lru.Remove(en.elem)
	m.gauge.Release(en.bytes)
	en.op.Release()
}

// Holds reports whether key is kept at the state stamp names, touching
// neither the recency order nor the counters.
func (m *OperandMemo) Holds(key, stamp string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	en := m.m[key]
	return en != nil && en.stamp == stamp
}

// Flush drops every entry.
func (m *OperandMemo) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, en := range m.m {
		m.removeLocked(en)
	}
}

// OperandMemoStats reports an operand memo's effectiveness. Hits counts
// operands served, Misses operands derived and put, Evictions entries
// left under memory pressure (entries of another state dropped are not
// counted).
// Bytes is the gauge's charge: the kept rows and every index built over
// them. Entries is the number of operands kept.
type OperandMemoStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64
	Entries   int
}

// Stats returns the memo's counters.
func (m *OperandMemo) Stats() OperandMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return OperandMemoStats{Hits: m.hits, Misses: m.misses, Evictions: m.evicted, Bytes: m.gauge.Used(), Entries: len(m.m)}
}
