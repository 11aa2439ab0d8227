package core

import (
	"context"
	"fmt"
)

// Env binds free relation variables to database relations. Bind must not
// race with evaluation; lookups during evaluation are read-only.
type Env struct {
	Rels map[string]*Relation
	// deltas binds the recursion variables of running fixpoints to their
	// current delta as a windowed scan source (see deltaSource); a name is
	// bound in Rels or in deltas, never both.
	deltas map[string]*deltaSource
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{Rels: make(map[string]*Relation)} }

// Bind associates a relation with a name, replacing any previous binding.
func (e *Env) Bind(name string, r *Relation) { e.Rels[name] = r }

// Lookup returns the relation bound to name. A delta-bound recursion
// variable is coalesced into a fresh relation on every call — pipelines
// scan it through stream instead; only an operator that must materialize
// it (a join building on the recursion variable) comes here.
func (e *Env) Lookup(name string) (*Relation, bool) {
	if r, ok := e.Rels[name]; ok {
		return r, true
	}
	if d, ok := e.deltas[name]; ok {
		return d.relation(), true
	}
	return nil, false
}

// without returns a copy of e with name unbound.
func (e *Env) without(name string) *Env {
	out := &Env{Rels: make(map[string]*Relation, len(e.Rels)+1)}
	for k, v := range e.Rels {
		if k != name {
			out.Rels[k] = v
		}
	}
	for k, v := range e.deltas {
		if k != name {
			if out.deltas == nil {
				out.deltas = make(map[string]*deltaSource, len(e.deltas))
			}
			out.deltas[k] = v
		}
	}
	return out
}

// with returns a copy of e with name rebound to r (used for recursion
// variables during fixpoint evaluation).
func (e *Env) with(name string, r *Relation) *Env {
	out := e.without(name)
	out.Rels[name] = r
	return out
}

// withDelta returns a copy of e with name rebound to a delta source.
func (e *Env) withDelta(name string, d *deltaSource) *Env {
	out := e.without(name)
	if out.deltas == nil {
		out.deltas = make(map[string]*deltaSource, 1)
	}
	out.deltas[name] = d
	return out
}

// SchemaEnv derives the schema environment of the bound relations.
func (e *Env) SchemaEnv() SchemaEnv {
	out := make(SchemaEnv, len(e.Rels)+len(e.deltas))
	for k, v := range e.Rels {
		out[k] = v.Cols()
	}
	for k, d := range e.deltas {
		out[k] = d.cols
	}
	return out
}

// EvalStats accumulates counters describing an evaluation, used by the
// benchmarks and the cost-model validation experiment.
type EvalStats struct {
	FixpointIterations int // total semi-naive iterations across fixpoints
	TuplesProduced     int // tuples added across all fixpoint deltas
	MaxDelta           int // largest single delta
	OpTuples           int // tuples materialized at operator/pipeline sinks
	IndexBuilds        int // join indexes built
	IndexReuses        int // join index cache hits (reuse across iterations)
	ParallelSteps      int // fixpoint iterations probed by the worker pool
}

// Evaluator evaluates µ-RA terms against an Env using semi-naive fixpoint
// iteration (Algorithm 1 of the paper). The zero value is not usable; use
// NewEvaluator.
//
// By default operators execute as a streaming iterator pipeline: tuples
// flow through join/filter/rename/anti-projection/union in column-aligned
// batches and are only materialized (and deduplicated, exactly once — see
// iter.go) at pipeline sinks.
// Joins and antijoins probe JoinIndexes; operands that are constant with
// respect to the running fixpoints are kept with their indexes in the
// evaluator's memo (see Operand), so a fixpoint derives and indexes them
// once and every semi-naive delta iteration reuses them, and an operand a
// sealed relation or the OperandStore keeps is derived and indexed once
// for every evaluator that reads it. Setting Materializing restores the seed's
// stage-by-stage materializing evaluation — the reference semantics the
// property tests compare against, and the ablation baseline.
//
// Concurrency: one Evaluator serves one goroutine (its caches and stats
// are unsynchronized); it *internally* fans work out to a bounded pool
// during parallel fixpoint iterations. Run concurrent queries on separate
// Evaluators.
type Evaluator struct {
	env     *Env
	MaxIter int // safety valve per fixpoint; 0 means no limit
	Stats   EvalStats
	// Materializing forces the materializing reference evaluator.
	Materializing bool
	// Parallel bounds the worker pool of the fixpoint's parallel delta
	// probing: 0 means DefaultParallelism(), 1 disables parallelism, n>1
	// uses at most n workers. Iterations whose delta is smaller than a few
	// batches always run sequentially regardless.
	Parallel int
	// Gauge, when non-nil, is the task memory budget this evaluator's
	// operators charge and spill against: join indexes charge their
	// buckets and stay in memory, and fixpoint accumulators evict frozen
	// shards to disk once the gauge is over budget. Nil means unbudgeted.
	// Call Close when done with a budgeted evaluator to return its
	// indexes' charges. An evaluator never given its task's gauge charges
	// nothing: the starved differential (internal/testkit) fails when the
	// driver evaluator leaves its gauge uncharged.
	Gauge *MemGauge
	// Ctx, when non-nil, cancels evaluation: fixpoint loops check it once
	// per iteration and the parallel drain once per batch, so a cancelled
	// query stops within one iteration, returns ctx.Err(), and unwinds
	// through the usual defers (accumulators, indexes and spill files are
	// released on the way out). Nil means never cancelled.
	Ctx context.Context
	// FixpointHandler, when set, is invoked for fixpoint terms instead of
	// the local semi-naive loop — the hook the physical planner uses to
	// execute fixpoints distributively while every other operator streams
	// through the local pipeline.
	FixpointHandler func(fp *Fixpoint, env *Env) (*Relation, error)

	// dynamic names the recursion variables of fixpoints currently being
	// iterated: terms mentioning them change every iteration and are never
	// cached or used as join build sides when avoidable.
	dynamic map[string]bool
	// memo holds the operands this evaluator probes, with their join
	// indexes (see Operand): the relations bound in its environment, keyed
	// by name, and the subterms constant with respect to the running
	// fixpoints, keyed by their text, so φ's constant operands are
	// evaluated and indexed once per fixpoint instead of once per
	// iteration. Its operands charge Gauge; Close returns the charge.
	memo map[string]*Operand
	// Operands, when set, is the shared memo consulted for constant
	// operands outside any running fixpoint: the driver's, across queries.
	Operands OperandStore
	// ephemeral holds the operands of uncached budgeted indexes until
	// their step ends or Close.
	ephemeral []*Operand
	// pool is the free list the pipelines' output batches come from; every
	// sink recycles what its pipelines took once they are drained.
	pool BatchPool
}

// NewEvaluator returns an evaluator over env.
func NewEvaluator(env *Env) *Evaluator {
	return &Evaluator{
		env:     env,
		dynamic: make(map[string]bool),
		memo:    make(map[string]*Operand),
	}
}

// Eval evaluates t. It validates the term's schema first so that relation
// operations cannot fail mid-flight.
func (ev *Evaluator) Eval(t Term) (*Relation, error) {
	if _, err := Schema(t, ev.env.SchemaEnv()); err != nil {
		return nil, err
	}
	return ev.eval(t, ev.env)
}

// Eval is a convenience one-shot evaluation of t under env.
func Eval(t Term, env *Env) (*Relation, error) {
	return NewEvaluator(env).Eval(t)
}

// eval materializes t under env, dispatching to the streaming pipeline or
// the materializing reference evaluator.
func (ev *Evaluator) eval(t Term, env *Env) (*Relation, error) {
	if ev.Materializing {
		return ev.evalMat(t, env)
	}
	switch n := t.(type) {
	case *Var:
		r, ok := env.Lookup(n.Name)
		if !ok {
			return nil, fmt.Errorf("core: unbound relation variable %q", n.Name)
		}
		return r, nil
	case *Fixpoint:
		if ev.FixpointHandler != nil {
			return ev.FixpointHandler(n, env)
		}
		return ev.evalFixpoint(n, env)
	}
	mark := ev.pool.Mark()
	defer ev.pool.Recycle(mark)
	it, err := ev.stream(t, env, true)
	if err != nil {
		return nil, err
	}
	out := Materialize(it)
	ev.Stats.OpTuples += out.Len()
	return out, nil
}

// stream builds the iterator pipeline for t under env. root is true while
// t sits at the root of a pipeline whose sink deduplicates, through any
// chain of anti-projections, unions and renames, an antijoin's left
// operand, and a join's probe operand when the build side adds no column:
// the drops and unions on that chain are built without their inline
// distinct and their rows are deduplicated once, by the sink. An antijoin
// and a column-preserving join only drop probe rows, so a bag probe
// yields a bag with no row repeated more often. Everything below the
// chain — and every pipeline whose consumer is another operator —
// streams sets.
func (ev *Evaluator) stream(t Term, env *Env, root bool) (Iterator, error) {
	switch n := t.(type) {
	case *Var:
		if d, ok := env.deltas[n.Name]; ok {
			return d.scan(), nil
		}
		r, ok := env.Lookup(n.Name)
		if !ok {
			return nil, fmt.Errorf("core: unbound relation variable %q", n.Name)
		}
		return ScanRelation(r), nil
	case *ConstTuple:
		row := make([]Value, len(n.Vals))
		copy(row, n.Vals)
		return &singletonIter{cols: n.Cols, row: row}, nil
	case *Union:
		l, err := ev.stream(n.L, env, root)
		if err != nil {
			return nil, err
		}
		r, err := ev.stream(n.R, env, root)
		if err != nil {
			return nil, err
		}
		return UnionStream(l, r, !root), nil
	case *Join:
		return ev.streamJoin(n, env, root)
	case *Antijoin:
		return ev.streamAntijoin(n, env, root)
	case *Filter:
		in, err := ev.stream(n.T, env, false)
		if err != nil {
			return nil, err
		}
		return FilterStream(in, n.Cond, &ev.pool), nil
	case *Rename:
		in, err := ev.stream(n.T, env, root)
		if err != nil {
			return nil, err
		}
		return RenameStream(in, n.From, n.To, &ev.pool)
	case *AntiProject:
		in, err := ev.stream(n.T, env, root)
		if err != nil {
			return nil, err
		}
		return DropStream(in, n.Cols, !root, &ev.pool)
	case *Fixpoint:
		rel, _, err := ev.evalOperand(t, env)
		if err != nil {
			return nil, err
		}
		return ScanRelation(rel), nil
	default:
		return nil, fmt.Errorf("core: eval: unknown term %T", t)
	}
}

// isDynamic reports whether t mentions any currently-iterating recursion
// variable.
func (ev *Evaluator) isDynamic(t Term) bool {
	for name := range ev.dynamic {
		if ContainsVar(t, name) {
			return true
		}
	}
	return false
}

// evalOperand materializes an operand term and returns it with the memo
// entry that holds its join indexes, or with a nil entry when the operand
// is not memoized: it mentions a running fixpoint's recursion variable, or
// no fixpoint runs and no shared memo keeps it. A bound relation is kept
// under its name for as long as the name binds it. A subterm constant with
// respect to the running fixpoints is kept under its text, so φ's constant
// operands are evaluated once per fixpoint, not once per iteration. An
// operand that a shared memo keeps — the memo of the sealed relation that
// is the operand's one free variable, or the evaluator's OperandStore — is
// evaluated and indexed once for every evaluator that reads it.
func (ev *Evaluator) evalOperand(t Term, env *Env) (*Relation, *Operand, error) {
	if v, ok := t.(*Var); ok {
		r, ok := env.Lookup(v.Name)
		if !ok {
			return nil, nil, fmt.Errorf("core: unbound relation variable %q", v.Name)
		}
		if ev.dynamic[v.Name] {
			return r, nil, nil
		}
		if op := ev.memo[v.Name]; op != nil && op.rel == r {
			return r, op, nil
		}
		return r, ev.hold(v.Name, r, r.self), nil
	}
	if ev.isDynamic(t) {
		r, err := ev.eval(t, env)
		return r, nil, err
	}
	key := t.String()
	if len(ev.dynamic) > 0 {
		if op := ev.memo[key]; op != nil {
			return op.rel, op, nil
		}
	}
	shared, err := ev.sharedOperand(t, key, env)
	if err != nil {
		return nil, nil, err
	}
	if shared != nil {
		if op := ev.memo[key]; op != nil && op.parent == shared {
			return op.rel, op, nil
		}
		return shared.rel, ev.hold(key, shared.rel, shared), nil
	}
	r, err := ev.eval(t, env)
	if err != nil || len(ev.dynamic) == 0 {
		return r, nil, err
	}
	return r, ev.hold(key, r, nil), nil
}

// hold keeps rel under key in the evaluator's memo, as an operand charged
// to the evaluator's gauge that takes its indexes from shared when set.
func (ev *Evaluator) hold(key string, rel *Relation, shared *Operand) *Operand {
	op := &Operand{rel: rel, parent: shared, gauge: ev.Gauge}
	if old := ev.memo[key]; old != nil {
		old.Release()
	}
	ev.memo[key] = op
	return op
}

// sharedOperand returns the shared operand for a constant term t: from the
// memo of the sealed relation that is t's one free variable (evaluated and
// kept there on a miss), or from the evaluator's OperandStore outside any
// running fixpoint. It returns nil when neither keeps t.
func (ev *Evaluator) sharedOperand(t Term, key string, env *Env) (*Operand, error) {
	if fv := FreeVars(t); len(fv) == 1 {
		if r, ok := env.Rels[fv[0]]; ok && r.memo != nil {
			if op := r.memo.Get(key, ""); op != nil {
				return op, nil
			}
			rel, err := ev.eval(t, env)
			if err != nil {
				return nil, err
			}
			return r.memo.Put(key, "", rel), nil
		}
	}
	if ev.Operands == nil || len(ev.dynamic) > 0 {
		return nil, nil
	}
	return ev.Operands.Operand(t, func() (*Relation, error) { return ev.eval(t, env) })
}

// indexFor returns a JoinIndex over rel's cols. With a memo entry op the
// index is op's: built the first time any holder of op (or of its shared
// parent) asks, and reused by every later probe — across every iteration
// of a fixpoint whose constant side it indexes, and across evaluators for
// a shared operand. Without one the index is built for this use alone.
func (ev *Evaluator) indexFor(rel *Relation, op *Operand, cols []string) (*JoinIndex, error) {
	if op == nil {
		// Uncached (dynamic-side) indexes have no memo entry to release
		// them from; park them on the evaluator so the step's end, or
		// Close, returns their gauge charge.
		op = &Operand{rel: rel, gauge: ev.Gauge}
		if ev.Gauge != nil {
			ev.ephemeral = append(ev.ephemeral, op)
		}
	}
	ix, built, err := op.index(cols)
	if err != nil {
		return nil, err
	}
	if built {
		ev.Stats.IndexBuilds++
	} else {
		ev.Stats.IndexReuses++
	}
	return ix, nil
}

// Close returns the gauge charges of the evaluator's join indexes (memoized
// and ephemeral). Only budgeted evaluators need it; the evaluator must not
// be used afterwards. A missed Close is caught at runtime: the
// differential harness (internal/testkit) fails any route that leaves a
// gauge holding a charge once its query returns.
func (ev *Evaluator) Close() {
	for k, op := range ev.memo {
		op.Release()
		delete(ev.memo, k)
	}
	ev.releaseEphemeral(0)
}

// releaseEphemeral closes the ephemeral indexes created since base (a
// previous len(ev.ephemeral)). Fixpoint loops call it after each
// iteration's pipelines are drained, so per-iteration dynamic-side
// indexes — and their gauge charges — never accumulate across iterations.
func (ev *Evaluator) releaseEphemeral(base int) {
	for _, op := range ev.ephemeral[base:] {
		op.Release()
	}
	ev.ephemeral = ev.ephemeral[:base]
}

// streamJoin plans a hash join: the build side is materialized and
// indexed on the common columns, the probe side streams. When exactly one
// side is dynamic (mentions an iterating recursion variable), the constant
// side is the build side so its index is built once and reused across all
// delta iterations; otherwise bare relation variables are preferred as
// build sides (their indexes are cacheable), then the smaller relation.
// A build side that adds no column makes the join a semijoin: it streams
// through SemijoinStream, and its probe stays on the root chain.
func (ev *Evaluator) streamJoin(n *Join, env *Env, root bool) (Iterator, error) {
	build, probe := n.R, n.L
	lDyn, rDyn := ev.isDynamic(n.L), ev.isDynamic(n.R)
	switch {
	case lDyn && !rDyn:
		// Default: build on the right, probe with the dynamic left.
	case rDyn && !lDyn:
		build, probe = n.L, n.R
	default:
		_, lVar := n.L.(*Var)
		_, rVar := n.R.(*Var)
		if lVar && rVar {
			lr, _, _ := ev.evalOperand(n.L, env)
			rr, _, _ := ev.evalOperand(n.R, env)
			if lr != nil && rr != nil && lr.Len() < rr.Len() {
				build, probe = n.L, n.R
			}
		} else if lVar {
			build, probe = n.L, n.R
		}
	}
	buildRel, buildOp, err := ev.evalOperand(build, env)
	if err != nil {
		return nil, err
	}
	if root {
		probeCols, err := Schema(probe, env.SchemaEnv())
		if err != nil {
			return nil, err
		}
		root = len(ColsMinus(buildRel.Cols(), probeCols)) == 0
	}
	probeIt, err := ev.stream(probe, env, root)
	if err != nil {
		return nil, err
	}
	if len(ColsMinus(buildRel.Cols(), probeIt.Cols())) == 0 {
		return SemijoinStream(probeIt, buildRel, true, &ev.pool), nil
	}
	common := ColsIntersect(probeIt.Cols(), buildRel.Cols())
	ix, err := ev.indexFor(buildRel, buildOp, common)
	if err != nil {
		return nil, err
	}
	return JoinStream(probeIt, ix, buildRel.Cols(), &ev.pool), nil
}

// streamAntijoin plans l ▷ r: the right side is materialized (constant
// under Fcond whenever a fixpoint is running, hence cached) and indexed on
// the common columns; left rows stream and are emitted when no match
// exists. The left side stays on the root chain. A right side whose
// columns all occur on the left streams through SemijoinStream.
func (ev *Evaluator) streamAntijoin(n *Antijoin, env *Env, root bool) (Iterator, error) {
	l, err := ev.stream(n.L, env, root)
	if err != nil {
		return nil, err
	}
	right, rightOp, err := ev.evalOperand(n.R, env)
	if err != nil {
		return nil, err
	}
	common := ColsIntersect(l.Cols(), right.Cols())
	if len(common) == 0 {
		if right.Len() == 0 {
			return l, nil
		}
		return &emptyIter{cols: l.Cols()}, nil
	}
	if len(common) == right.Arity() {
		return SemijoinStream(l, right, false, &ev.pool), nil
	}
	ix, err := ev.indexFor(right, rightOp, common)
	if err != nil {
		return nil, err
	}
	probeAt := make([]int, len(common))
	for i, c := range common {
		probeAt[i] = ColIndex(l.Cols(), c)
	}
	return AntijoinStream(l, ix, probeAt, &ev.pool), nil
}

func (ev *Evaluator) evalFixpoint(fp *Fixpoint, env *Env) (*Relation, error) {
	d, err := Decompose(fp)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(d.Const, env)
	if err != nil {
		return nil, err
	}
	return ev.RunFixpoint(d, r, env)
}

// markDynamic flags a recursion variable as iterating and returns the
// restore function.
func (ev *Evaluator) markDynamic(x string) func() {
	prev := ev.dynamic[x]
	ev.dynamic[x] = true
	return func() {
		if !prev {
			delete(ev.dynamic, x)
		}
	}
}

// RunFixpoint executes Algorithm 1 of the paper on an already-decomposed
// fixpoint starting from the given constant part:
//
//	X = R; new = R
//	while new ≠ ∅:
//	    new = φ(new) \ X
//	    X = X ∪ new
//	return X
//
// Applying φ to the delta only is sound because Fcond makes φ distribute
// over singletons (Proposition 1). The initial relation may be any subset
// of (or stand-in for) the fixpoint's constant part, which is exactly what
// the fixpoint-splitting plans rely on: each worker calls RunFixpoint on
// its own portion Ri. The loop body is FixpointLoop.Step, stepped locally
// until a step adds nothing. Insertion order of the result is not
// deterministic under parallelism; consumers must compare
// order-insensitively (SameRows).
func (ev *Evaluator) RunFixpoint(d *Decomposed, init *Relation, env *Env) (*Relation, error) {
	if ev.Materializing {
		return ev.runFixpointMat(d, init, env)
	}
	if len(d.PhiBranches) == 0 {
		return init.Clone(), nil
	}
	loop := ev.NewFixpointLoop(d, init, env)
	defer loop.Close()
	if err := loop.Run(); err != nil {
		return nil, err
	}
	return loop.X().Materialize(), nil
}

// FixpointLoop is the semi-naive loop body of Algorithm 1 as a stepping
// object — the one loop every streaming plan runs. X is sharded across all
// iterations in a cross-iteration Accumulator; the rows a step appends to
// it ARE the next delta (zero-copy shard windows between two marks,
// scanned through a deltaSource), and the result is read from X itself
// (FixpointLoop.X) after the last step. Where the loop runs is the caller's
// choice: stepped locally (RunFixpoint: Ps_plw, Ppg_plw, maintenance) or
// once per driver iteration through an Exchange (Pgld).
//
// Each step builds one pipeline per φ branch per pool worker over the
// shared delta cursor and returns their output batches to the evaluator's
// free list when the drain returns, so steps after the first allocate no
// batch buffers. The constant sides' join indexes are built lazily, the
// first time a step's pipeline reaches its join (so a loop whose delta is
// empty from the start builds none), and reused by every later step.
// A FixpointLoop is single-owner and must be closed.
type FixpointLoop struct {
	ev   *Evaluator
	d    *Decomposed
	env  *Env
	init *Relation
	x    *Accumulator
	// dst holds the step drain's destinations by owner: X at self, and on
	// a loop stepped through an Exchange of n > 1 workers the per-owner
	// shuffle filters at every other index — dst[p] is the set of every
	// candidate this loop has routed to peer p. A local loop has dst = [X].
	dst     []*Accumulator
	self    int
	fmarks  []AccMark     // the filters' watermarks at the start of the step
	wins    [][]*Relation // the filters' new windows, by owner
	prev    AccMark       // X's watermark where the upcoming delta window starts
	delta   int           // rows in the upcoming delta window
	iter    int
	restore func()
}

// Exchange is the shuffle a FixpointLoop step ships its candidates
// through: Pgld's per-iteration repartitioning by row hash. The loop is
// the worker WorkerID of NumWorkers owners.
type Exchange interface {
	WorkerID() int
	NumWorkers() int
	// ShipInto sends wins[p] — the rows this step routed to peer p, all of
	// them new to p's filter — to peer p, and absorbs into x every row the
	// peers routed to this worker. wins[WorkerID()] is nil: this worker's
	// own rows are already in x. It is a barrier every peer's step takes.
	ShipInto(wins [][]*Relation, x *Accumulator) error
}

// NewFixpointLoop seeds X with init (the first delta) and marks the
// recursion variable dynamic on ev until Close.
func (ev *Evaluator) NewFixpointLoop(d *Decomposed, init *Relation, env *Env) *FixpointLoop {
	l := &FixpointLoop{ev: ev, d: d, env: env, init: init, restore: ev.markDynamic(d.X)}
	l.x = NewAccumulator(ev.Gauge, init.Cols()...)
	l.dst = []*Accumulator{l.x}
	l.delta = l.x.Absorb(init)
	return l
}

// route opens the per-owner shuffle filters of a loop stepped through ex,
// on its first such step.
func (l *FixpointLoop) route(ex Exchange) {
	if n := ex.NumWorkers(); len(l.dst) != n {
		l.self = ex.WorkerID()
		l.dst = make([]*Accumulator, n)
		for p := range l.dst {
			if p == l.self {
				l.dst[p] = l.x
			} else {
				l.dst[p] = NewAccumulator(l.ev.Gauge, l.x.Cols()...)
			}
		}
		l.fmarks = make([]AccMark, n)
		l.wins = make([][]*Relation, n)
	}
}

// Step runs one iteration: new = φ(Δ) \ X, X = X ∪ new, and returns
// |new|, the size of the next delta.
//
// φ(Δ) drains under the shard locks, the set difference and union fused:
// the one hash probe a produced tuple ever pays, since φ's root
// anti-projections and unions are built without their inline distinct.
// With a nil exchange every tuple drains into X. A local loop has
// converged when a step returns 0; a step on an empty delta does nothing.
//
// With an exchange — Pgld's per-iteration shuffle — the drain routes each
// tuple by its row hash (Owner): a tuple this worker owns drains straight
// into X, one owned by peer p into p's shuffle filter, which holds every
// candidate this loop has already handed p (p absorbed a re-derived
// candidate the first time). Each filter's new window goes to
// ex.ShipInto, which absorbs into X the rows the peers route here. The
// exchange runs on every step, empty delta or not, since it is a barrier
// its peers wait on; convergence is the driver's call.
//
// The caller's loop polls for cancellation between steps; within a step
// the drain stops within one batch of ev.Ctx being cancelled.
func (l *FixpointLoop) Step(ex Exchange) (int, error) {
	ev := l.ev
	if ex == nil && l.delta == 0 {
		return 0, nil
	}
	l.iter++
	if ev.MaxIter > 0 && l.iter > ev.MaxIter {
		return 0, fmt.Errorf("core: fixpoint exceeded %d iterations", ev.MaxIter)
	}
	// Over budget, freeze the already-consumed prefix of X (rows below
	// prev) to disk; the upcoming delta window [prev, mark) is never
	// touched, so its zero-copy views stay valid.
	l.x.EvictBelow(l.prev)
	mark := l.x.Mark()
	if ex != nil {
		l.route(ex)
		// Every candidate a filter holds has been shipped: all of it may
		// freeze.
		for p, f := range l.dst {
			if p != l.self {
				l.fmarks[p] = f.Mark()
				f.EvictBelow(l.fmarks[p])
			}
		}
	}
	// The delta: for the first iteration init itself, afterwards the
	// shard windows appended since prev.
	views := []*Relation{l.init}
	if l.iter > 1 {
		views = l.x.DeltaViews(l.prev, mark)
	}
	workers := ParallelPlan(l.delta, l.x.Arity(), ev.Parallel)
	// Ephemeral (dynamic-build-side) indexes and the output batches of
	// this step's pipelines are dead once the drain below finishes; release
	// them so neither they nor their gauge charges outlive the step.
	ebase, bmark := len(ev.ephemeral), ev.pool.Mark()
	pipes := make([]Iterator, 0, len(l.d.PhiBranches)*workers)
	for _, br := range l.d.PhiBranches {
		// One cursor per branch: its pipelines split the delta between
		// them, and every branch sees all of it.
		src := newDeltaSource(l.x.Cols(), views)
		stepEnv := l.env.withDelta(l.d.X, src)
		for w := 0; w < workers; w++ {
			src.nextPipeline()
			it, err := ev.stream(br, stepEnv, true)
			if err != nil {
				return 0, err
			}
			pipes = append(pipes, it)
		}
	}
	added, err := ParallelDrainCtx(ev.Ctx, pipes, workers, l.dst, l.self)
	ev.releaseEphemeral(ebase)
	ev.pool.Recycle(bmark)
	if err != nil {
		return 0, err
	}
	if ex != nil {
		for p, f := range l.dst {
			if p != l.self {
				l.wins[p] = f.DeltaViews(l.fmarks[p], f.Mark())
			}
		}
		if err := ex.ShipInto(l.wins, l.x); err != nil {
			return 0, err
		}
		added = DeltaRows(mark, l.x.Mark())
	}
	if workers > 1 {
		ev.Stats.ParallelSteps++
	}
	l.prev, l.delta = mark, added
	ev.Stats.FixpointIterations++
	ev.Stats.TuplesProduced += added
	ev.Stats.MaxDelta = max(ev.Stats.MaxDelta, added)
	return added, nil
}

// Run steps the loop locally, polling ev.Ctx between steps, until a step
// adds nothing.
func (l *FixpointLoop) Run() error {
	for {
		if err := CtxErr(l.ev.Ctx); err != nil {
			return err
		}
		added, err := l.Step(nil)
		if err != nil || added == 0 {
			return err
		}
	}
}

// X returns the loop's accumulator: the fixpoint once the last step has
// added nothing. A plan reads it in place — Scan it, or Materialize it —
// before Close, and must not read it while a step runs.
func (l *FixpointLoop) X() *Accumulator { return l.x }

// Close releases X and the shuffle filters (spill runs, gauge charges)
// and unmarks the recursion variable. Calling it more than once is
// harmless.
func (l *FixpointLoop) Close() {
	for _, a := range l.dst {
		a.Close()
	}
	l.restore()
}

// EvalPhiDelta evaluates φ(nu) — the union of the decomposed fixpoint's
// recursive branches with X bound to nu — into one materialized relation
// under the given base environment (defaulting to the evaluator's): a
// single φ step, such as the seed of a maintenance phase. The branch
// pipelines are bag-rooted; the returned relation's own set is the one
// dedup per tuple.
func (ev *Evaluator) EvalPhiDelta(d *Decomposed, nu *Relation, env *Env) (*Relation, error) {
	if env == nil {
		env = ev.env
	}
	restore := ev.markDynamic(d.X)
	defer restore()
	ebase, bmark := len(ev.ephemeral), ev.pool.Mark()
	defer ev.releaseEphemeral(ebase)
	defer ev.pool.Recycle(bmark)
	stepEnv := env.with(d.X, nu)
	out := NewRelation(nu.Cols()...)
	for _, br := range d.PhiBranches {
		if ev.Materializing {
			rel, err := ev.evalMat(br, stepEnv)
			if err != nil {
				return nil, err
			}
			out.AddBatch(rel.AsBatch())
			continue
		}
		it, err := ev.stream(br, stepEnv, true)
		if err != nil {
			return nil, err
		}
		for b := it.Next(); b != nil; b = it.Next() {
			out.AddBatch(b)
		}
	}
	return out, nil
}

// --- materializing reference evaluator ---------------------------------------

// evalMat is the seed's evaluator: every operator materializes a full
// deduplicated Relation. It is kept verbatim as the reference semantics
// for the streaming pipeline (property-tested equal) and as the ablation
// baseline for the benchmarks.
func (ev *Evaluator) evalMat(t Term, env *Env) (*Relation, error) {
	out, err := ev.evalNodeMat(t, env)
	if err == nil && out != nil {
		ev.Stats.OpTuples += out.Len()
	}
	return out, err
}

func (ev *Evaluator) evalNodeMat(t Term, env *Env) (*Relation, error) {
	switch n := t.(type) {
	case *Var:
		r, ok := env.Lookup(n.Name)
		if !ok {
			return nil, fmt.Errorf("core: unbound relation variable %q", n.Name)
		}
		return r, nil
	case *ConstTuple:
		r := NewRelation(n.Cols...)
		row := make([]Value, len(n.Vals))
		copy(row, n.Vals)
		r.Add(row)
		return r, nil
	case *Union:
		l, err := ev.evalMat(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalMat(n.R, env)
		if err != nil {
			return nil, err
		}
		return l.Union(r), nil
	case *Join:
		l, err := ev.evalMat(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalMat(n.R, env)
		if err != nil {
			return nil, err
		}
		return l.Join(r), nil
	case *Antijoin:
		l, err := ev.evalMat(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalMat(n.R, env)
		if err != nil {
			return nil, err
		}
		return l.Antijoin(r), nil
	case *Filter:
		r, err := ev.evalMat(n.T, env)
		if err != nil {
			return nil, err
		}
		return r.Filter(n.Cond), nil
	case *Rename:
		r, err := ev.evalMat(n.T, env)
		if err != nil {
			return nil, err
		}
		return r.Rename(n.From, n.To)
	case *AntiProject:
		r, err := ev.evalMat(n.T, env)
		if err != nil {
			return nil, err
		}
		return r.Drop(n.Cols...)
	case *Fixpoint:
		if ev.FixpointHandler != nil {
			return ev.FixpointHandler(n, env)
		}
		d, err := Decompose(n)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalMat(d.Const, env)
		if err != nil {
			return nil, err
		}
		return ev.runFixpointMat(d, r, env)
	default:
		return nil, fmt.Errorf("core: eval: unknown term %T", t)
	}
}

// runFixpointMat is the seed's semi-naive loop: delta materialized per
// branch, then diffed against X, then unioned in.
func (ev *Evaluator) runFixpointMat(d *Decomposed, init *Relation, env *Env) (*Relation, error) {
	x := init.Clone()
	if len(d.PhiBranches) == 0 {
		return x, nil
	}
	nu := init
	iter := 0
	for nu.Len() > 0 {
		iter++
		if err := CtxErr(ev.Ctx); err != nil {
			return nil, err
		}
		if ev.MaxIter > 0 && iter > ev.MaxIter {
			return nil, fmt.Errorf("core: fixpoint exceeded %d iterations", ev.MaxIter)
		}
		stepEnv := env.with(d.X, nu)
		var delta *Relation
		for _, br := range d.PhiBranches {
			out, err := ev.evalMat(br, stepEnv)
			if err != nil {
				return nil, err
			}
			if delta == nil {
				delta = out
			} else {
				delta.UnionInPlace(out)
			}
		}
		nu = delta.Diff(x)
		added := x.UnionInPlace(nu)
		ev.Stats.FixpointIterations++
		ev.Stats.TuplesProduced += added
		if added > ev.Stats.MaxDelta {
			ev.Stats.MaxDelta = added
		}
	}
	return x, nil
}

// Owner is the partition among n that owns a row whose partitioning hash
// is h. It is the one hash partitioner of the engine: the seed scatter
// (SplitRelation), the cluster shuffle (Ctx.Exchange), a Pgld step's
// routed drain and the distributed Datalog stand-in all route through it,
// so a row a step routes to a worker is a row the scatter would have put
// there.
func Owner(h uint64, n int) int { return int(h % uint64(n)) }

// SplitRelation partitions r into n parts. When byCols is non-empty the
// split hashes on those columns (every tuple sharing the byCols values
// lands in the same part — the stable-column partitioning of §III-B);
// otherwise rows are dealt round-robin. Parts may be empty. The parts of a
// set are disjoint sets: rows are appended, never re-hashed, and the parts'
// dedup sets stay deferred.
func SplitRelation(r *Relation, n int, byCols []string) []*Relation {
	if n < 1 {
		panic("core: SplitRelation with n < 1")
	}
	parts := make([]*Relation, n)
	for i := range parts {
		parts[i] = NewRelation(r.Cols()...)
	}
	if len(byCols) > 0 {
		at := make([]int, len(byCols))
		for i, c := range byCols {
			idx := ColIndex(r.Cols(), c)
			if idx < 0 {
				panic(fmt.Sprintf("core: SplitRelation: column %q not in schema %v", c, r.Cols()))
			}
			at[i] = idx
		}
		for i := 0; i < r.Len(); i++ {
			row := r.RowAt(i)
			parts[Owner(HashValuesAt(row, at), n)].appendDistinctVals(row, 1)
		}
		return parts
	}
	for i := 0; i < r.Len(); i++ {
		parts[i%n].appendDistinctVals(r.RowAt(i), 1)
	}
	return parts
}

// HashValuesAt hashes the values of row at the given positions (FNV-1a).
// It is the canonical partitioning hash used across the engine so that the
// centralized splitter and the distributed partitioner agree.
func HashValuesAt(row []Value, at []int) uint64 {
	h := uint64(fnvOffset64)
	for _, idx := range at {
		v := uint64(row[idx])
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	return h
}
