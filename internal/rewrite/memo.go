package rewrite

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
)

// This file is the optimizer memo: every term that enters a rewriter's plan
// space is interned as a node, and every piece of per-subterm work — free
// variables, the plan check, the certified rule applications and the list
// of one-step rewrites — runs once per node instead of once per candidate
// plan that contains it (Fejza & Genevès, arXiv 2312.02572: rules and
// checks per group expression).
//
// A node's key is its operator label (opLabel: operator and parameters),
// and its child node IDs. Fixpoint binders are canonical: µ(X = body) is
// renamed to bind binderName(h), where h is the fixpoint's nesting height
// (one more than the tallest fixpoint in its body). The binder is thus
// fixed by the body written with its bound variable as an index (a de
// Bruijn level counted from the innermost fixpoint), so alpha-equivalent
// subterms with the same free variables are one node, whose representative
// term every plan containing it shares. A fixpoint nested in another is
// strictly shorter, so canonical binders never shadow each other.
//
// A verdict is cached per node and bindings of its free variables (ctxKey),
// so it must depend on nothing else; yet the no-shadowing rule reads every
// enclosing binder. That holds for a subterm of a checked plan, not for a
// rule output (join-into-fixpoint can bind µ@2 below an enclosing µ@2 until
// withChild re-canonicalizes it), so an output is certified in its own
// bindings (memo.own), never in its input's scope.

// nodeID names an interned term; -1 marks an absent child.
type nodeID = int32

type nodeKey struct {
	label string
	l, r  nodeID
}

type node struct {
	t      core.Term // representative: children are representatives too
	key    nodeKey
	free   []string // free relation variables, sorted
	height int      // fixpoint nesting height: 0 for fixpoint-free terms
}

// ctxKey identifies a node under the bindings of its free recursion
// variables (see memo.sig): its check result and its one-step rewrites
// depend on nothing else.
type ctxKey struct{ id, sig nodeID }

type checked struct {
	cols []string
	ok   bool
}

// scope is the chain of fixpoint binders enclosing a position, innermost
// first; cols is the binder's column list ID (memo.colsID), or -1 while
// the fixpoint's seed branch, which fixes those columns, is checked.
type scope struct {
	name string
	cols nodeID
	up   *scope
}

func (s *scope) lookup(name string) (nodeID, bool) {
	for ; s != nil; s = s.up {
		if s.name == name {
			return s.cols, true
		}
	}
	return 0, false
}

// memo belongs to one Rewriter and lives as long as it does: one optimize
// call.
type memo struct {
	rw     *Rewriter
	nodes  []node
	byKey  map[nodeKey]nodeID
	byTerm map[core.Term]nodeID
	checks map[ctxKey]checked
	steps  map[ctxKey][]nodeID
	cols   map[string]nodeID // column lists, for binder signatures
	colsOf [][]string
	sigs   map[[2]nodeID]nodeID // binding signatures (sig)
}

func newMemo(rw *Rewriter) *memo {
	return &memo{
		rw:     rw,
		byKey:  make(map[nodeKey]nodeID),
		byTerm: make(map[core.Term]nodeID),
		checks: make(map[ctxKey]checked),
		steps:  make(map[ctxKey][]nodeID),
		cols:   make(map[string]nodeID),
		sigs:   make(map[[2]nodeID]nodeID),
	}
}

// binderName is the canonical binder of a fixpoint of nesting height h. No
// translator or rule names a variable this way.
func binderName(h int) string { return "µ@" + strconv.Itoa(h) }

func (m *memo) term(id nodeID) core.Term { return m.nodes[id].t }

func (m *memo) terms(ids []nodeID) []core.Term {
	out := make([]core.Term, len(ids))
	for i, id := range ids {
		out[i] = m.term(id)
	}
	return out
}

// intern returns the node of t, creating the nodes of t's subterms that are
// not interned yet.
func (m *memo) intern(t core.Term) nodeID {
	if id, ok := m.byTerm[t]; ok {
		return id
	}
	var id nodeID
	switch n := t.(type) {
	case *core.Fixpoint:
		id = m.fixpoint(n.X, m.intern(n.Body))
	default:
		ch := core.Children(t)
		kids := [2]nodeID{-1, -1}
		for i, c := range ch {
			kids[i] = m.intern(c)
		}
		id = m.make(nodeKey{label: opLabel(t), l: kids[0], r: kids[1]}, func() core.Term {
			reps := make([]core.Term, len(ch))
			same := true
			for i, c := range ch {
				reps[i] = m.term(kids[i])
				same = same && reps[i] == c
			}
			if same {
				return t
			}
			return core.WithChildren(t, reps)
		})
	}
	m.byTerm[t] = id
	return id
}

// make returns the node of key, building its representative with build
// when the key is new.
func (m *memo) make(key nodeKey, build func() core.Term) nodeID {
	if id, ok := m.byKey[key]; ok {
		return id
	}
	t := build()
	n := node{t: t, key: key}
	switch v := t.(type) {
	case *core.Var:
		n.free = []string{v.Name}
	case *core.Fixpoint:
		body := m.nodes[key.l]
		n.height = body.height + 1
		n.free = body.free
		if has(n.free, v.X) {
			n.free = core.ColsMinus(n.free, []string{v.X})
		}
	default:
		if key.l >= 0 {
			n.free, n.height = m.nodes[key.l].free, m.nodes[key.l].height
		}
		if key.r >= 0 {
			r := m.nodes[key.r]
			n.free = union(n.free, r.free)
			n.height = max(n.height, r.height)
		}
	}
	id := nodeID(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.byKey[key] = id
	m.byTerm[t] = id
	return id
}

// fixpoint returns the node of µ(x = body) under its canonical binder.
func (m *memo) fixpoint(x string, body nodeID) nodeID {
	name := binderName(m.nodes[body].height + 1)
	if x != name {
		bf := m.nodes[body].free
		switch {
		case !has(bf, x):
			x = name // nothing to rename
		case !has(bf, name):
			v := m.intern(&core.Var{Name: name})
			body = m.intern(core.Substitute(m.term(body), x, m.term(v)))
			x = name
		}
		// Otherwise renaming would capture a free variable of that name;
		// the binder keeps its own name.
	}
	key := nodeKey{label: "µ(" + x + ")", l: body, r: -1}
	return m.make(key, func() core.Term { return &core.Fixpoint{X: x, Body: m.term(body)} })
}

// withChild returns the node of p with its i-th child replaced by c.
func (m *memo) withChild(p nodeID, i int, c nodeID) nodeID {
	if fp, ok := m.term(p).(*core.Fixpoint); ok {
		return m.fixpoint(fp.X, c)
	}
	key := m.nodes[p].key
	if i == 0 {
		key.l = c
	} else {
		key.r = c
	}
	return m.make(key, func() core.Term {
		old := m.term(p)
		ch := core.Children(old)
		reps := make([]core.Term, len(ch))
		copy(reps, ch)
		reps[i] = m.term(c)
		return core.WithChildren(old, reps)
	})
}

// mentionsRec reports whether id has a free variable the rewriter's
// database schema does not bind: an enclosing recursion variable.
func (m *memo) mentionsRec(id nodeID) bool {
	for _, v := range m.nodes[id].free {
		if _, db := m.rw.Env[v]; !db {
			return true
		}
	}
	return false
}

// colsID interns a column list.
func (m *memo) colsID(cols []string) nodeID {
	k := strings.Join(cols, "\x00")
	if id, ok := m.cols[k]; ok {
		return id
	}
	id := nodeID(len(m.colsOf))
	m.colsOf = append(m.colsOf, cols)
	m.cols[k] = id
	return id
}

// sig summarizes the bindings sc gives the free recursion variables of id:
// 0 when id mentions none, and otherwise one ID per sequence of bindings
// (column list, seed placeholder or unbound) of those variables.
func (m *memo) sig(id nodeID, sc *scope) nodeID {
	var sig nodeID
	for _, v := range m.nodes[id].free {
		if _, db := m.rw.Env[v]; db {
			continue
		}
		c := nodeID(-2) // unbound
		if cols, ok := sc.lookup(v); ok {
			c = cols
		}
		step := [2]nodeID{sig, c}
		next, ok := m.sigs[step]
		if !ok {
			next = nodeID(len(m.sigs) + 1)
			m.sigs[step] = next
		}
		sig = next
	}
	return sig
}

// env is the schema environment of a position under sc, restricted to the
// variables id mentions: the rule set's view of the node.
func (m *memo) env(id nodeID, sc *scope) core.SchemaEnv {
	env := m.rw.Env
	for _, v := range m.nodes[id].free {
		if _, db := m.rw.Env[v]; db {
			continue
		}
		if cols, ok := sc.lookup(v); ok && cols >= 0 {
			env = env.With(v, m.colsOf[cols])
		}
	}
	return env
}

// check is core.Schema's verdict on node id in scope sc, computed from its
// children's cached verdicts. Canonical binders cannot shadow one another,
// so the verdict depends only on the bindings of the node's free variables.
func (m *memo) check(id nodeID, sc *scope) ([]string, bool) {
	k := ctxKey{id, m.sig(id, sc)}
	if r, ok := m.checks[k]; ok {
		return r.cols, r.ok
	}
	cols, ok := m.checkNode(id, sc)
	m.checks[k] = checked{cols, ok}
	return cols, ok
}

func (m *memo) checkNode(id nodeID, sc *scope) ([]string, bool) {
	key := m.nodes[id].key
	switch n := m.term(id).(type) {
	case *core.Var:
		if c, ok := sc.lookup(n.Name); ok {
			if c < 0 {
				return nil, true // a seed branch's own binder
			}
			return m.colsOf[c], true
		}
		cols, ok := m.rw.Env[n.Name]
		return cols, ok
	case *core.ConstTuple:
		// The one-shot checker owns the constant-tuple rules.
		cols, err := core.Schema(n, nil)
		return cols, err == nil
	case *core.Union:
		l, lok := m.check(key.l, sc)
		r, rok := m.check(key.r, sc)
		if !lok || !rok || !core.ColsEqual(l, r) {
			return nil, false
		}
		return l, true
	case *core.Join:
		l, lok := m.check(key.l, sc)
		r, rok := m.check(key.r, sc)
		if !lok || !rok {
			return nil, false
		}
		return core.ColsUnion(l, r), true
	case *core.Antijoin:
		l, lok := m.check(key.l, sc)
		_, rok := m.check(key.r, sc)
		return l, lok && rok
	case *core.Filter:
		cols, ok := m.check(key.l, sc)
		if !ok || !subset(n.Cond.Columns(), cols) {
			return nil, false
		}
		return cols, true
	case *core.Rename:
		cols, ok := m.check(key.l, sc)
		if !ok || n.From == n.To {
			return cols, ok
		}
		from := core.ColIndex(cols, n.From)
		if from < 0 || core.ColIndex(cols, n.To) >= 0 {
			return nil, false
		}
		out := append([]string(nil), cols...)
		out[from] = n.To
		return core.SortCols(out), true
	case *core.AntiProject:
		cols, ok := m.check(key.l, sc)
		if !ok || !subset(n.Cols, cols) {
			return nil, false
		}
		return core.ColsMinus(cols, n.Cols), true
	case *core.Fixpoint:
		return m.checkFixpoint(n.X, key.l, sc)
	}
	return nil, false
}

// checkFixpoint mirrors core's fixpoint rule: no shadowing, a seed branch
// constant in x with columns, every other branch agreeing with the seed,
// and Fcond.
func (m *memo) checkFixpoint(x string, body nodeID, sc *scope) ([]string, bool) {
	if _, bound := sc.lookup(x); bound {
		return nil, false
	}
	if _, db := m.rw.Env[x]; db {
		return nil, false
	}
	branches := m.branches(nil, body)
	seedAt := -1
	for i, br := range branches {
		if !has(m.nodes[br].free, x) {
			seedAt = i
			break
		}
	}
	if seedAt < 0 {
		return nil, false
	}
	seed, ok := m.check(branches[seedAt], &scope{name: x, cols: -1, up: sc})
	if !ok || len(seed) == 0 {
		return nil, false
	}
	inner := &scope{name: x, cols: m.colsID(seed), up: sc}
	for i, br := range branches {
		if i == seedAt {
			continue
		}
		cols, brOK := m.check(br, inner)
		if !brOK || !core.ColsEqual(cols, seed) {
			ok = false
		}
	}
	if !ok || !m.fcond(body, x) {
		return nil, false
	}
	return seed, true
}

// branches appends the union branches of id.
func (m *memo) branches(dst []nodeID, id nodeID) []nodeID {
	if _, ok := m.term(id).(*core.Union); ok {
		k := m.nodes[id].key
		return m.branches(m.branches(dst, k.l), k.r)
	}
	return append(dst, id)
}

// fcond reports whether the recursion variable x occurs positively,
// linearly and outside nested fixpoints in id (Definition 1). Only paths
// that mention x are walked.
func (m *memo) fcond(id nodeID, x string) bool {
	if !has(m.nodes[id].free, x) {
		return true
	}
	k := m.nodes[id].key
	switch m.term(id).(type) {
	case *core.Antijoin:
		return !has(m.nodes[k.r].free, x) && m.fcond(k.l, x)
	case *core.Join:
		l, r := has(m.nodes[k.l].free, x), has(m.nodes[k.r].free, x)
		return !(l && r) && m.fcond(k.l, x) && m.fcond(k.r, x)
	case *core.Fixpoint:
		return false // x free inside a nested fixpoint
	case *core.Union:
		return m.fcond(k.l, x) && m.fcond(k.r, x)
	case *core.Filter, *core.Rename, *core.AntiProject:
		return m.fcond(k.l, x)
	}
	return true
}

// rewrites returns every node one rule application away from id in scope
// sc: the certified applications of the rules at id in rule order, then the
// rewrites of each child, left to right, rebuilt into id.
func (m *memo) rewrites(id nodeID, sc *scope) []nodeID {
	k := ctxKey{id, m.sig(id, sc)}
	if out, ok := m.steps[k]; ok {
		return out
	}
	var out []nodeID
	t, env := m.term(id), m.env(id, sc)
	for _, rule := range m.rw.rules {
		if m.rw.Disabled[rule.Name] {
			continue
		}
		for _, nt := range rule.Apply(m.rw, t, env) {
			nid := m.intern(nt)
			if d, bad := m.certify(rule.Name, id, nid, sc, env); bad {
				m.rw.AuditViolations++
				m.rw.LastAudit = []core.Diagnostic{d}
				continue
			}
			out = append(out, nid)
		}
	}
	key := m.nodes[id].key
	childScope := sc
	if fp, ok := t.(*core.Fixpoint); ok {
		cols, ok := m.check(id, sc)
		if !ok {
			m.steps[k] = out
			return out // ill-formed below here; no rewrites
		}
		childScope = &scope{name: fp.X, cols: m.colsID(cols), up: sc}
	}
	for i, c := range [2]nodeID{key.l, key.r} {
		if c < 0 {
			continue
		}
		for _, r := range m.rewrites(c, childScope) {
			out = append(out, m.withChild(id, i, r))
		}
	}
	m.steps[k] = out
	return out
}

// certify vets the named rule's rewrite of node in, in scope sc, into out:
// out must check in its own bindings and keep in's (cached) columns, and a
// fixpoint-pushing rule's side condition must hold on in under env.
func (m *memo) certify(rule string, in, out nodeID, sc *scope, env core.SchemaEnv) (core.Diagnostic, bool) {
	var why string
	code := CodeRuleSideCond
	inCols, inOK := m.check(in, sc)
	outCols, ok := m.check(out, m.own(out, sc))
	switch {
	case !ok:
		code, why = CodeRuleOutput, "output does not check"
	case inOK && !core.ColsEqual(inCols, outCols):
		code, why = CodeRuleSchema, fmt.Sprintf("schema %v -> %v", inCols, outCols)
	default:
		if why = sideCondition(rule, m.term(in), m.term(out), env); why == "" {
			return core.Diagnostic{}, false
		}
	}
	return core.Diagnostic{Code: code, Path: "/", Term: m.term(in).String(),
		Detail: fmt.Sprintf("rule %s: %s; output %s", rule, why, m.term(out))}, true
}

// own is the part of sc that binds id's free variables.
func (m *memo) own(id nodeID, sc *scope) *scope {
	var own *scope
	for _, v := range m.nodes[id].free {
		if cols, ok := sc.lookup(v); ok {
			own = &scope{name: v, cols: cols, up: own}
		}
	}
	return own
}

// has reports whether the sorted list s holds v.
func has(s []string, v string) bool { return core.ColIndex(s, v) >= 0 }

// union merges two sorted lists, sharing one when the other adds nothing.
func union(a, b []string) []string {
	if len(b) == 0 || slices.Equal(a, b) {
		return a
	}
	if len(a) == 0 {
		return b
	}
	return core.ColsUnion(a, b)
}
