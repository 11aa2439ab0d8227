package distmura

import (
	"context"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
)

// Stmt is a prepared statement: the query has been parsed, its rewrite
// space explored and the cheapest logical plan pinned, so every Run skips
// the optimizer — the expensive driver-side step worth amortizing across
// calls. A Stmt revalidates its plan against the graph's per-predicate
// generation counters on each Run: the §IV cost-based choice is
// deterministic per (query, graph statistics), so the pinned plan stays valid exactly until
// a predicate the plan reads mutates, at which point the statement
// transparently re-prepares (through the engine plan cache, so several
// statements on one query text re-optimize once, not each). Writes to
// unrelated predicates leave the plan pinned.
//
// A Stmt is safe for concurrent use by multiple goroutines; each Run
// executes in its own cluster session.
type Stmt struct {
	e    *Engine
	text string
	cfg  queryConfig

	mu        sync.Mutex
	term      core.Term
	mem       cost.MemPlan
	planSpace int
	fp        footprint // graph state the plan was costed on
	closed    bool
}

// errStmtClosed is returned by Run/Collect on a closed statement.
var errStmtClosed = errors.New("distmura: statement is closed")

// Prepare parses and optimizes a UCRPQ once, returning a statement whose
// Runs reuse the chosen plan. Query options bind at prepare time (a forced
// physical plan, ablations and the plan-space cap all travel with the
// statement).
func (e *Engine) Prepare(text string, opts ...QueryOption) (*Stmt, error) {
	cfg := e.queryConfig(opts)
	graph := e.graph
	term, planSpace, mp, _, err := e.optimizeCached(context.Background(), text, cfg)
	if err != nil {
		return nil, err
	}
	return &Stmt{e: e, text: text, cfg: cfg, term: term, mem: mp, planSpace: planSpace,
		fp: snapshotFootprint(graph, term)}, nil
}

// Text returns the statement's query text.
func (s *Stmt) Text() string { return s.text }

// plan returns the pinned logical plan, re-preparing it first if a
// predicate the plan reads was mutated — or the graph replaced outright
// (UseGraph) — since it was costed. Validity is graph *identity* plus the
// per-predicate generations of the plan's footprint: a different graph
// object invalidates even at equal counters, since its dictionary interns
// different constants. Identity is the graph's serial (graphgen.Graph.ID),
// not a pointer, so a dormant statement does not keep a replaced graph
// alive. Re-preparation honors ctx.
func (s *Stmt) plan(ctx context.Context) (core.Term, cost.MemPlan, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, cost.MemPlan{}, 0, errStmtClosed
	}
	graph := s.e.graph
	if !s.fp.valid(graph) {
		term, planSpace, mp, _, err := s.e.optimizeCached(ctx, s.text, s.cfg)
		if err != nil {
			return nil, cost.MemPlan{}, 0, err
		}
		s.term, s.mem, s.planSpace = term, mp, planSpace
		s.fp = snapshotFootprint(graph, term)
	}
	return s.term, s.mem, s.planSpace, nil
}

// Run executes the prepared plan and returns a streaming cursor. It
// honors ctx exactly like Engine.Query: admission, every cluster barrier
// and every fixpoint iteration abort on cancellation.
func (s *Stmt) Run(ctx context.Context) (*Rows, error) {
	term, mp, planSpace, err := s.plan(ctx)
	if err != nil {
		return nil, err
	}
	rows, err := s.e.run(ctx, term, s.cfg, nil)
	if err != nil {
		return nil, err
	}
	rows.stats.PlanSpace = planSpace
	rows.stats.EstimatedPeakBytes = mp.PeakBytes
	rows.stats.ExpectSpill = mp.ExpectSpill
	rows.stats.Prepared = true
	return rows, nil
}

// Collect is Run followed by Rows.Collect — the one-shot convenience.
func (s *Stmt) Collect(ctx context.Context) (*Result, error) {
	rows, err := s.Run(ctx)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Close releases the statement. Idempotent; Runs in flight finish
// normally, later Runs fail.
func (s *Stmt) Close() error {
	s.mu.Lock()
	s.closed = true
	s.term = nil
	s.mu.Unlock()
	return nil
}
