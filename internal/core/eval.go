package core

import (
	"context"
	"fmt"
	"strings"
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
// Joins and antijoins probe JoinIndexes; indexes over relations that are
// constant with respect to the running fixpoints are cached on the
// evaluator, so a fixpoint builds them once and every semi-naive delta
// iteration reuses them. Setting Materializing restores the seed's
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
	// operators charge and spill against: fixpoint accumulators evict
	// frozen shards to disk and join indexes fall back to Grace-hash
	// partitioning once the gauge is over budget. Nil means unbudgeted.
	// Call Close when done with a budgeted evaluator to release cached
	// spilled indexes.
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
	// indexes caches JoinIndexes keyed by (relation identity, columns).
	indexes map[indexCacheKey]*JoinIndex
	// consts memoizes materialized subterms that are constant w.r.t. the
	// running fixpoints, so φ's constant operands are evaluated once per
	// fixpoint instead of once per iteration.
	consts map[string]*Relation
	// ephemeral holds uncached budgeted indexes until Close.
	ephemeral []*JoinIndex
	// pool is the free list the pipelines' output batches come from; every
	// sink recycles what its pipelines took once they are drained.
	pool BatchPool
}

type indexCacheKey struct {
	rel  *Relation
	cols string
}

// NewEvaluator returns an evaluator over env.
func NewEvaluator(env *Env) *Evaluator {
	return &Evaluator{
		env:     env,
		dynamic: make(map[string]bool),
		indexes: make(map[indexCacheKey]*JoinIndex),
		consts:  make(map[string]*Relation),
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
		rel, err := ev.evalOperand(t, env)
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

// evalOperand materializes an operand term, memoizing results for terms
// that are constant with respect to the running fixpoints (φ's constant
// operands are evaluated once per fixpoint, not once per iteration).
func (ev *Evaluator) evalOperand(t Term, env *Env) (*Relation, error) {
	if v, ok := t.(*Var); ok {
		r, ok := env.Lookup(v.Name)
		if !ok {
			return nil, fmt.Errorf("core: unbound relation variable %q", v.Name)
		}
		return r, nil
	}
	cacheable := len(ev.dynamic) > 0 && !ev.isDynamic(t)
	var key string
	if cacheable {
		key = t.String()
		if r, ok := ev.consts[key]; ok {
			return r, nil
		}
	}
	r, err := ev.eval(t, env)
	if err != nil {
		return nil, err
	}
	if cacheable {
		ev.consts[key] = r
	}
	return r, nil
}

func joinIndexKey(cols []string) string { return strings.Join(cols, "\x00") }

// indexFor builds (or fetches from the evaluator cache) a JoinIndex over
// rel's cols. Only indexes over stable relations are cached: a cached
// entry is keyed by relation identity, so it is reused for as long as the
// same relation object keeps being probed — in particular across every
// iteration of a fixpoint whose constant side it indexes.
func (ev *Evaluator) indexFor(rel *Relation, cols []string, stable bool) (*JoinIndex, error) {
	if stable {
		k := indexCacheKey{rel: rel, cols: joinIndexKey(cols)}
		if ix, ok := ev.indexes[k]; ok {
			ev.Stats.IndexReuses++
			return ix, nil
		}
		ix, err := BuildJoinIndex(rel, cols, ev.Parallel, ev.Gauge)
		if err != nil {
			return nil, err
		}
		ev.Stats.IndexBuilds++
		ev.indexes[k] = ix
		return ix, nil
	}
	ev.Stats.IndexBuilds++
	ix, err := BuildJoinIndex(rel, cols, ev.Parallel, ev.Gauge)
	if err == nil && ev.Gauge != nil {
		// Uncached (dynamic-side) indexes have no cache slot to release
		// them from; park them on the evaluator so Close returns their
		// gauge charge and spill partitions at query end.
		ev.ephemeral = append(ev.ephemeral, ix)
	}
	return ix, err
}

// Close releases gauge charges and spill files held by the evaluator's
// join indexes (cached and ephemeral). Only budgeted evaluators need it (a
// finalizer backstops forgotten spill descriptors); the evaluator must not
// be used afterwards.
func (ev *Evaluator) Close() {
	for k, ix := range ev.indexes {
		ix.Close()
		delete(ev.indexes, k)
	}
	ev.releaseEphemeral(0)
}

// releaseEphemeral closes the ephemeral indexes created since base (a
// previous len(ev.ephemeral)). Fixpoint loops call it after each
// iteration's pipelines are drained, so per-iteration dynamic-side
// indexes — and their gauge charges — never accumulate across iterations.
func (ev *Evaluator) releaseEphemeral(base int) {
	for _, ix := range ev.ephemeral[base:] {
		ix.Close()
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
			lr, _ := ev.evalOperand(n.L, env)
			rr, _ := ev.evalOperand(n.R, env)
			if lr != nil && rr != nil && lr.Len() < rr.Len() {
				build, probe = n.L, n.R
			}
		} else if lVar {
			build, probe = n.L, n.R
		}
	}
	buildRel, err := ev.evalOperand(build, env)
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
	ix, err := ev.indexFor(buildRel, common, !ev.isDynamic(build))
	if err != nil {
		return nil, err
	}
	if ix.Spilled() {
		return GraceJoinStream(probeIt, ix, buildRel.Cols(), &ev.pool), nil
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
	right, err := ev.evalOperand(n.R, env)
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
	ix, err := ev.indexFor(right, common, !ev.isDynamic(n.R))
	if err != nil {
		return nil, err
	}
	probeAt := make([]int, len(common))
	for i, c := range common {
		probeAt[i] = ColIndex(l.Cols(), c)
	}
	if ix.Spilled() {
		return GraceAntijoinStream(l, ix, probeAt, &ev.pool), nil
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
// its own portion Ri.
//
// The streaming implementation keeps X sharded across all iterations in a
// cross-iteration Accumulator: φ(new) streams into the accumulator with
// the set difference and union fused under the shard locks — the one hash
// probe a produced tuple ever pays, since φ's root anti-projections and
// unions are built without their inline distinct — the rows an iteration
// appends ARE the next delta (zero-copy shard windows between two marks,
// scanned through a deltaSource), and a Relation is materialized exactly
// once, by block copy, at fixpoint exit. Each iteration builds one
// pipeline per φ branch per pool worker over the shared delta cursor and
// returns their output batches to the evaluator's free list when the drain
// returns, so iterations after the first allocate no batch buffers. The
// constant sides' join indexes are built — in parallel for large inputs —
// once before the first iteration and reused by every later one. Insertion
// order of the result is not deterministic under parallelism; consumers
// must compare order-insensitively (SameRows).
func (ev *Evaluator) RunFixpoint(d *Decomposed, init *Relation, env *Env) (*Relation, error) {
	if ev.Materializing {
		return ev.runFixpointMat(d, init, env)
	}
	if len(d.PhiBranches) == 0 {
		return init.Clone(), nil
	}
	restore := ev.markDynamic(d.X)
	defer restore()
	ev.warmConstIndexes(d, init, env)
	acc := NewAccumulator(ev.Gauge, init.Cols()...)
	defer acc.Close()
	prev := AccMark{}
	deltaRows := acc.Absorb(init)
	iter := 0
	for deltaRows > 0 {
		iter++
		if err := CtxErr(ev.Ctx); err != nil {
			return nil, err
		}
		if ev.MaxIter > 0 && iter > ev.MaxIter {
			return nil, fmt.Errorf("core: fixpoint exceeded %d iterations", ev.MaxIter)
		}
		// Over budget, freeze the already-consumed prefix of X (rows below
		// prev) to disk; the upcoming delta window [prev, mark) is never
		// touched, so its zero-copy views stay valid.
		acc.EvictBelow(prev)
		mark := acc.Mark()
		// The delta: for the first iteration init itself, afterwards the
		// shard windows appended since prev.
		views := []*Relation{init}
		if iter > 1 {
			views = acc.DeltaViews(prev, mark)
		}
		_, workers := ParallelPlan(deltaRows, acc.Arity(), ev.Parallel)
		// Ephemeral (dynamic-build-side) indexes and the output batches of
		// this iteration's pipelines are dead once the drain below
		// finishes; release them so neither they nor their gauge charges
		// outlive the iteration.
		ebase, bmark := len(ev.ephemeral), ev.pool.Mark()
		pipes := make([]Iterator, 0, len(d.PhiBranches)*workers)
		for _, br := range d.PhiBranches {
			// One cursor per branch: its pipelines split the delta between
			// them, and every branch sees all of it.
			src := newDeltaSource(acc.Cols(), views)
			stepEnv := env.withDelta(d.X, src)
			for w := 0; w < workers; w++ {
				src.nextPipeline()
				it, err := ev.stream(br, stepEnv, true)
				if err != nil {
					return nil, err
				}
				pipes = append(pipes, it)
			}
		}
		added, err := ParallelDrainCtx(ev.Ctx, pipes, workers, acc)
		ev.releaseEphemeral(ebase)
		ev.pool.Recycle(bmark)
		if err != nil {
			return nil, err
		}
		if workers > 1 {
			ev.Stats.ParallelSteps++
		}
		prev = mark
		deltaRows = added
		ev.Stats.FixpointIterations++
		ev.Stats.TuplesProduced += added
		if added > ev.Stats.MaxDelta {
			ev.Stats.MaxDelta = added
		}
	}
	return acc.Materialize(), nil
}

// warmConstIndexes pre-builds the constant-side join indexes of φ's
// branches concurrently, before the first iteration. The lazy path builds
// them one by one as each branch's pipeline first reaches its join; a
// multi-branch fixpoint (or one branch with several constant operands)
// serializes what are independent scans. The walk mirrors streamJoin's
// build-side choice exactly — only sides that are constant while exactly
// the other side is dynamic (and antijoin right sides) are warmed — so a
// warmed index is always the one the pipeline would have built. Discovery
// errors and build failures are skipped silently: the lazy path retries
// and surfaces them with full context. Must be called with d.X already
// marked dynamic.
func (ev *Evaluator) warmConstIndexes(d *Decomposed, init *Relation, env *Env) {
	workers := ev.Parallel
	if workers == 0 {
		workers = DefaultParallelism()
	}
	if workers <= 1 {
		return
	}
	senv := env.SchemaEnv()
	senv[d.X] = init.Cols()
	type warmJob struct {
		rel  *Relation
		cols []string
	}
	var jobs []warmJob
	seen := map[indexCacheKey]bool{}
	add := func(build Term, probeCols []string) {
		rel, err := ev.evalOperand(build, env)
		if err != nil {
			return
		}
		common := ColsIntersect(probeCols, rel.Cols())
		if len(common) == 0 || len(common) == rel.Arity() {
			return // no index: a cross product, or a semijoin (SemijoinStream)
		}
		k := indexCacheKey{rel: rel, cols: joinIndexKey(common)}
		if seen[k] {
			return
		}
		if _, ok := ev.indexes[k]; ok {
			return
		}
		seen[k] = true
		jobs = append(jobs, warmJob{rel: rel, cols: common})
	}
	var walk func(t Term)
	walk = func(t Term) {
		switch n := t.(type) {
		case *Fixpoint:
			// A nested fixpoint warms its own branches when it runs.
			return
		case *Join:
			lDyn, rDyn := ev.isDynamic(n.L), ev.isDynamic(n.R)
			if lDyn && !rDyn {
				if pc, err := Schema(n.L, senv); err == nil {
					add(n.R, pc)
				}
			} else if rDyn && !lDyn {
				if pc, err := Schema(n.R, senv); err == nil {
					add(n.L, pc)
				}
			}
		case *Antijoin:
			if !ev.isDynamic(n.R) {
				if pc, err := Schema(n.L, senv); err == nil {
					add(n.R, pc)
				}
			}
		}
		for _, c := range Children(t) {
			walk(c)
		}
	}
	for _, br := range d.PhiBranches {
		walk(br)
	}
	if len(jobs) < 2 {
		return // a single build gains nothing over the lazy path
	}
	built := make([]*JoinIndex, len(jobs))
	runWorkers(len(jobs), workers, func(_, i int) {
		// Each job builds sequentially (parallel=1): the concurrency is
		// across jobs, not within one, so workers never oversubscribe.
		if ix, err := BuildJoinIndex(jobs[i].rel, jobs[i].cols, 1, ev.Gauge); err == nil {
			built[i] = ix
		}
	})
	for i, ix := range built {
		if ix == nil {
			continue
		}
		ev.Stats.IndexBuilds++
		ev.indexes[indexCacheKey{rel: jobs[i].rel, cols: joinIndexKey(jobs[i].cols)}] = ix
	}
}

// EvalPhiDelta evaluates φ(nu) — the union of the decomposed fixpoint's
// recursive branches with X bound to nu — into one materialized delta
// relation under the given base environment (defaulting to the
// evaluator's). X is marked dynamic for the evaluation, so the constant
// sides' join indexes are cached on the evaluator and reused when the
// caller loops (the driver-side global loop Pgld calls this once per
// iteration on each worker).
//
// The branch pipelines are bag-rooted and the delta's dedup is the one set
// operation per tuple: with a nil filter the returned relation's own set;
// with a filter — Pgld's per-sender shuffle filter — the filter's, and the
// returned relation holds exactly the rows that were new to it, appended
// as they were absorbed (distinct by construction, set deferred).
func (ev *Evaluator) EvalPhiDelta(d *Decomposed, nu *Relation, env *Env, filter *Accumulator) (*Relation, error) {
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
	sink := func(b *Batch) { out.AddBatch(b) }
	if filter != nil {
		ab := filter.Absorber()
		sink = func(b *Batch) { ab.AbsorbBatch(b, out) }
	}
	for _, br := range d.PhiBranches {
		if ev.Materializing {
			rel, err := ev.evalMat(br, stepEnv)
			if err != nil {
				return nil, err
			}
			sink(rel.AsBatch())
			continue
		}
		it, err := ev.stream(br, stepEnv, true)
		if err != nil {
			return nil, err
		}
		for b := it.Next(); b != nil; b = it.Next() {
			sink(b)
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
			h := HashValuesAt(row, at)
			parts[int(h%uint64(n))].appendDistinctVals(row, 1)
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
