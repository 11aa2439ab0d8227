package core

import (
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
//   - the engine's sub-result cache keeps the operands derived from the
//     driver's graph, per graph state, across queries (OperandStore).
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

// operandMemo maps operand keys — the canonical text of the term that
// derives an operand (Term.String), or the name of the bound relation it
// is — to operands. Safe for concurrent use.
type operandMemo struct {
	mu    sync.Mutex
	m     map[string]*Operand
	rows  int // rows of the operands held, the unkeyed "" entry excepted
	limit int // cap on rows; negative means none
}

func newOperandMemo(limit int) *operandMemo {
	return &operandMemo{m: make(map[string]*Operand), limit: limit}
}

func (m *operandMemo) get(key string) *Operand {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[key]
}

// put keeps op under key unless an operand is already kept there or the
// memo would exceed its row cap, and returns the operand kept under key
// (op itself when none is, so the caller can go on using it).
func (m *operandMemo) put(key string, op *Operand) *Operand {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.m[key]; ok {
		return cur
	}
	if m.limit >= 0 && m.rows+op.rel.Len() > m.limit {
		return op
	}
	m.m[key] = op
	m.rows += op.rel.Len()
	return op
}

// replace keeps op under key, releasing the operand it displaces.
func (m *operandMemo) replace(key string, op *Operand) {
	m.mu.Lock()
	old := m.m[key]
	m.m[key] = op
	m.mu.Unlock()
	if old != nil {
		old.Release()
	}
}

// release returns every held operand's charge and empties the memo.
func (m *operandMemo) release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, op := range m.m {
		op.Release()
		delete(m.m, k)
	}
	m.rows = 0
}
