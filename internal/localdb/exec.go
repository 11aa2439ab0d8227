package localdb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// evictStride is how many rows a budgeted sink accumulates between eviction
// attempts while pipelines drain into it (core.Accumulator.MaybeEvictStride
// and EvictBelowStride): coarse enough that run compaction is not rewritten
// per batch, fine enough that the over-budget excursion stays a few batches
// deep.
const evictStride = 8192

// Stats counts executor work, for benchmarks and tests.
type Stats struct {
	IndexProbes      int // index lookups performed
	IndexBuilds      int // hash indexes built
	CacheHits        int // constant subterms served from cache
	RowsMaterialized int
	FixpointIters    int
}

// Executor evaluates µ-RA terms against a DB. Its two optimizations mirror
// what an indexed local engine (PostgreSQL in the paper) provides over a
// naive evaluator:
//
//   - subterms that do not mention any dynamic variable (the fixpoint's
//     delta) are evaluated once and memoized — on the DB, so the memo
//     survives the executor and is shared by every later query against
//     the same data — and
//   - joins between a dynamic side and a constant side probe a persistent
//     core.JoinIndex on the constant side, so per-iteration work scales
//     with the delta, not with the step relation.
type Executor struct {
	DB    *DB
	Stats Stats
	// Ctx, when non-nil, cancels evaluation: RunFixpoint checks it once
	// per semi-naive iteration, so a cancelled query stops within one
	// iteration and returns ctx.Err(). Nil means never cancelled.
	Ctx context.Context
	// pool recycles the batch buffers of the pipelines the executor builds
	// (built and recycled on the executor's goroutine only).
	pool core.BatchPool
}

// NewExecutor returns an executor over db.
func NewExecutor(db *DB) *Executor {
	return &Executor{DB: db}
}

// binding carries the dynamic relations during fixpoint evaluation.
type binding struct {
	name string
	rel  *core.Relation
}

// Eval evaluates a term with no dynamic bindings (fixpoints inside are
// executed semi-naively).
func (ex *Executor) Eval(t core.Term) (*core.Relation, error) {
	return ex.eval(t, nil)
}

func (ex *Executor) lookupVar(name string, dyn []binding) (*core.Relation, bool, bool) {
	for _, b := range dyn {
		if b.name == name {
			return b.rel, true, true
		}
	}
	if tab, ok := ex.DB.Table(name); ok {
		return tab.Relation(), false, true
	}
	return nil, false, false
}

// isDynamic reports whether t mentions any dynamic variable.
func isDynamic(t core.Term, dyn []binding) bool {
	for _, b := range dyn {
		if core.ContainsVar(t, b.name) {
			return true
		}
	}
	return false
}

// evalConstCached evaluates a constant subterm with memoization (on the
// DB, persisting across executors) and keeps its indexes alongside.
func (ex *Executor) evalConstCached(t core.Term) (*cachedRel, error) {
	key := t.String()
	if c, ok := ex.DB.consts[key]; ok {
		ex.Stats.CacheHits++
		return c, nil
	}
	rel, err := ex.eval(t, nil)
	if err != nil {
		return nil, err
	}
	c := &cachedRel{rel: rel, indexes: make(map[string]*Index)}
	ex.DB.consts[key] = c
	return c, nil
}

func (ex *Executor) eval(t core.Term, dyn []binding) (*core.Relation, error) {
	out, err := ex.evalNode(t, dyn)
	if err == nil && out != nil {
		ex.Stats.RowsMaterialized += out.Len()
	}
	return out, err
}

func (ex *Executor) evalNode(t core.Term, dyn []binding) (*core.Relation, error) {
	switch n := t.(type) {
	case *core.Var:
		rel, _, ok := ex.lookupVar(n.Name, dyn)
		if !ok {
			return nil, fmt.Errorf("localdb: unknown relation %q", n.Name)
		}
		return rel, nil
	case *core.ConstTuple:
		r := core.NewRelation(n.Cols...)
		row := make([]core.Value, len(n.Vals))
		copy(row, n.Vals)
		r.Add(row)
		return r, nil
	case *core.Union:
		l, err := ex.eval(n.L, dyn)
		if err != nil {
			return nil, err
		}
		r, err := ex.eval(n.R, dyn)
		if err != nil {
			return nil, err
		}
		return l.Union(r), nil
	case *core.Join:
		return ex.evalJoin(n, dyn)
	case *core.Antijoin:
		l, err := ex.eval(n.L, dyn)
		if err != nil {
			return nil, err
		}
		r, err := ex.eval(n.R, dyn)
		if err != nil {
			return nil, err
		}
		return l.Antijoin(r), nil
	case *core.Filter:
		r, err := ex.eval(n.T, dyn)
		if err != nil {
			return nil, err
		}
		return r.Filter(n.Cond), nil
	case *core.Rename:
		r, err := ex.eval(n.T, dyn)
		if err != nil {
			return nil, err
		}
		return r.Rename(n.From, n.To)
	case *core.AntiProject:
		r, err := ex.eval(n.T, dyn)
		if err != nil {
			return nil, err
		}
		return r.Drop(n.Cols...)
	case *core.Fixpoint:
		d, err := core.Decompose(n)
		if err != nil {
			return nil, err
		}
		init, err := ex.eval(d.Const, dyn)
		if err != nil {
			return nil, err
		}
		return ex.RunFixpoint(d, init, dyn)
	default:
		return nil, fmt.Errorf("localdb: unknown term %T", t)
	}
}

// probeJoin is a planned index-nested-loop join: exactly one side is
// dynamic, the constant side is evaluated once (memoized on the DB) and
// indexed on the common columns, and the dynamic side's rows probe the
// index.
type probeJoin struct {
	dRel *core.Relation
	cc   *cachedRel
	ix   *Index
}

// planProbeJoin plans j as a probeJoin, or returns nil when it is not one
// (no dynamic binding, both or neither side dynamic, or a cross product).
func (ex *Executor) planProbeJoin(j *core.Join, dyn []binding) (*probeJoin, error) {
	lDyn, rDyn := isDynamic(j.L, dyn), isDynamic(j.R, dyn)
	if len(dyn) == 0 || lDyn == rDyn {
		return nil, nil
	}
	dynTerm, constTerm := j.L, j.R
	if rDyn {
		dynTerm, constTerm = j.R, j.L
	}
	dRel, err := ex.eval(dynTerm, dyn)
	if err != nil {
		return nil, err
	}
	cc, err := ex.evalConstCached(constTerm)
	if err != nil {
		return nil, err
	}
	common := core.ColsIntersect(dRel.Cols(), cc.rel.Cols())
	if len(common) == 0 {
		return nil, nil
	}
	before := len(cc.indexes)
	ix, err := ensureIndexOn(cc.rel, cc.indexes, common, ex.DB.gauge)
	if err != nil {
		return nil, err
	}
	if len(cc.indexes) > before {
		ex.Stats.IndexBuilds++
	}
	ex.Stats.IndexProbes += dRel.Len()
	return &probeJoin{dRel: dRel, cc: cc, ix: ix}, nil
}

// streams returns the join as probe pipelines that together yield every
// joined row once. A large dynamic side gets one pipeline per worker, all
// scanning it behind one shared cursor and probing the (read-only) index
// concurrently — the per-worker local-loop parallelism of Ppg_plw. An
// over-budget constant side is probed partition-at-a-time by one Grace-hash
// stream instead of row-at-a-time index lookups.
func (p *probeJoin) streams(pool *core.BatchPool) []core.Iterator {
	build := p.cc.rel.Cols()
	if p.ix.Spilled() {
		return []core.Iterator{core.GraceJoinStream(core.ScanRelation(p.dRel), p.ix.ix, build, pool)}
	}
	_, workers := core.ParallelPlan(p.dRel.Len(), p.dRel.Arity(), 0)
	pipes := core.ScanShared(p.dRel, workers)
	for i, scan := range pipes {
		pipes[i] = core.JoinStream(scan, p.ix.ix, build, pool)
	}
	return pipes
}

// drain runs the pipelines into sink, each on a goroutine of its own when
// there are several, and returns how many rows were new: sink is where the
// rows are deduplicated, with membership and insertion fused per shard and
// no sequential merge afterwards. evict is called between batches — the
// valve of an over-budget sink.
func drain(pipes []core.Iterator, sink *core.Accumulator, evict func()) int {
	run := func(it core.Iterator) int {
		ab, n := sink.Absorber(), 0
		for b := it.Next(); b != nil; b = it.Next() {
			n += ab.AbsorbBatch(b, nil)
			evict()
		}
		return n
	}
	if len(pipes) == 1 {
		return run(pipes[0])
	}
	var added atomic.Int64
	var wg sync.WaitGroup
	for _, it := range pipes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			added.Add(int64(run(it)))
		}()
	}
	wg.Wait()
	return int(added.Load())
}

// evalJoin picks an index-nested-loop plan when exactly one side is
// dynamic (see probeJoin), collecting its output in a budgeted sink of its
// own — exactly the memory the estimator prices per output row; every other
// join materializes both sides.
func (ex *Executor) evalJoin(j *core.Join, dyn []binding) (*core.Relation, error) {
	p, err := ex.planProbeJoin(j, dyn)
	if err != nil {
		return nil, err
	}
	if p == nil {
		l, err := ex.eval(j.L, dyn)
		if err != nil {
			return nil, err
		}
		r, err := ex.eval(j.R, dyn)
		if err != nil {
			return nil, err
		}
		return l.Join(r), nil
	}
	defer ex.pool.Recycle(ex.pool.Mark())
	pipes := p.streams(&ex.pool)
	sink := core.NewAccumulatorBudgeted(ex.DB.gauge, pipes[0].Cols()...)
	defer sink.Close()
	// Nothing is windowed out of this sink, so an over-budget run freezes
	// all of it — at stride granularity, so that run compaction is not
	// rewritten once per batch.
	drain(pipes, sink, func() { sink.MaybeEvictStride(evictStride) })
	return sink.Materialize(), nil
}

// branchPipes returns the pipelines that together stream the φ branch t
// into the fixpoint accumulator. The anti-projections, renames and unions
// at the branch's root are core's streaming operators built without their
// inline distinct, on top of whatever produces the rows — a probeJoin's
// probe pipelines, otherwise a scan of the materialized operand — so a
// derived tuple is deduplicated once, by the accumulator, instead of once
// per operator on the way up. A union at the root contributes the
// pipelines of both sides.
func (ex *Executor) branchPipes(t core.Term, dyn []binding) ([]core.Iterator, error) {
	over := func(in core.Term, wrap func(core.Iterator) (core.Iterator, error)) ([]core.Iterator, error) {
		pipes, err := ex.branchPipes(in, dyn)
		for i := 0; err == nil && i < len(pipes); i++ {
			pipes[i], err = wrap(pipes[i])
		}
		return pipes, err
	}
	switch n := t.(type) {
	case *core.AntiProject:
		return over(n.T, func(it core.Iterator) (core.Iterator, error) {
			return core.DropStream(it, n.Cols, false, &ex.pool)
		})
	case *core.Rename:
		return over(n.T, func(it core.Iterator) (core.Iterator, error) {
			return core.RenameStream(it, n.From, n.To, &ex.pool)
		})
	case *core.Union:
		l, err := ex.branchPipes(n.L, dyn)
		if err != nil {
			return nil, err
		}
		r, err := ex.branchPipes(n.R, dyn)
		return append(l, r...), err
	case *core.Join:
		p, err := ex.planProbeJoin(n, dyn)
		if err != nil {
			return nil, err
		}
		if p != nil {
			return p.streams(&ex.pool), nil
		}
	}
	rel, err := ex.eval(t, dyn)
	if err != nil {
		return nil, err
	}
	return []core.Iterator{core.ScanRelation(rel)}, nil
}

// RunFixpoint executes a decomposed fixpoint semi-naively starting from
// init — the engine's WITH RECURSIVE analog. Constant operands of the φ
// branches stay cached and indexed across all iterations (and across
// executor instances, since both caches live on the DB), so each step
// costs work proportional to the delta. X lives in a core.Accumulator for
// the whole loop: the φ branches' rows are absorbed as their pipelines
// produce them (branchPipes) with the set difference and union fused per
// shard, the rows an iteration adds become the next delta straight out of
// the shards, and a Relation is materialized once at exit. The pipelines'
// batch buffers go back to the executor's pool after every iteration.
func (ex *Executor) RunFixpoint(d *core.Decomposed, init *core.Relation, dyn []binding) (*core.Relation, error) {
	if len(d.PhiBranches) == 0 {
		return init.Clone(), nil
	}
	ex.warmConstIndexes(d, init, dyn)
	acc := core.NewAccumulatorBudgeted(ex.DB.gauge, init.Cols()...)
	defer acc.Close()
	acc.Absorb(init)
	nu := init
	for nu.Len() > 0 {
		if err := core.CtxErr(ex.Ctx); err != nil {
			return nil, err
		}
		ex.Stats.FixpointIters++
		// The delta below is a DeltaRelation *copy*, so when over budget all
		// of X can be frozen to disk here. While the branches absorb, only
		// the rows below mark can: those above it are this iteration's, the
		// next delta.
		acc.MaybeEvict()
		mark := acc.Mark()
		step := append(dyn[:len(dyn):len(dyn)], binding{name: d.X, rel: nu})
		bmark := ex.pool.Mark()
		var pipes []core.Iterator
		for _, br := range d.PhiBranches {
			ps, err := ex.branchPipes(br, step)
			if err != nil {
				return nil, err
			}
			pipes = append(pipes, ps...)
		}
		for _, it := range pipes {
			if !core.ColsEqual(it.Cols(), acc.Cols()) {
				return nil, fmt.Errorf("localdb: fixpoint %s: branch schema %v, want %v", d.X, it.Cols(), acc.Cols())
			}
		}
		added := drain(pipes, acc, func() { acc.EvictBelowStride(mark, evictStride) })
		ex.pool.Recycle(bmark)
		if added == 0 {
			break
		}
		nu = acc.DeltaRelation(mark, acc.Mark())
	}
	return acc.Materialize(), nil
}

// warmJob is one constant-side index build queued by warmConstIndexes.
type warmJob struct {
	cc   *cachedRel
	cols []string
	name string
}

// warmConstIndexes builds the constant-side join indexes of a multi-branch
// φ concurrently before the first iteration. Without it the first delta
// pays every build back-to-back on one goroutine (evalJoin builds lazily,
// branch by branch); with it the builds overlap, so the cold-start latency
// of a union-of-paths fixpoint is the slowest single build rather than the
// sum. Constant subterms are evaluated (and memoized on the DB) serially
// first — only the index construction, the expensive part, fans out. Build
// failures are swallowed: the lazy path rebuilds and surfaces the error.
func (ex *Executor) warmConstIndexes(d *core.Decomposed, init *core.Relation, dyn []binding) {
	if len(d.PhiBranches) < 2 || core.DefaultParallelism() <= 1 {
		return
	}
	step := append(dyn[:len(dyn):len(dyn)], binding{name: d.X, rel: init})
	senv := make(core.SchemaEnv)
	for name, t := range ex.DB.tables {
		senv[name] = t.rel.Cols()
	}
	for _, b := range step {
		senv[b.name] = b.rel.Cols()
	}
	var jobs []warmJob
	queued := make(map[string]bool)
	var walk func(t core.Term)
	walk = func(t core.Term) {
		switch n := t.(type) {
		case *core.Fixpoint:
			// A nested fixpoint warms its own branches when it runs.
			return
		case *core.Join:
			lDyn, rDyn := isDynamic(n.L, step), isDynamic(n.R, step)
			if lDyn == rDyn {
				break
			}
			dynTerm, constTerm := n.L, n.R
			if rDyn {
				dynTerm, constTerm = n.R, n.L
			}
			cc, err := ex.evalConstCached(constTerm)
			if err != nil {
				return
			}
			probeCols, err := core.Schema(dynTerm, senv)
			if err != nil {
				return
			}
			common := core.ColsIntersect(probeCols, cc.rel.Cols())
			if len(common) > 0 {
				name := indexKeyName(common)
				key := constTerm.String() + "\x00\x00" + name
				if _, have := cc.indexes[name]; !have && !queued[key] {
					queued[key] = true
					jobs = append(jobs, warmJob{cc: cc, cols: common, name: name})
				}
			}
			walk(dynTerm)
			return
		}
		for _, c := range core.Children(t) {
			walk(c)
		}
	}
	for _, br := range d.PhiBranches {
		walk(br)
	}
	if len(jobs) < 2 {
		return
	}
	built := make([]*core.JoinIndex, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Serial per build (parallel=1): the fan-out across builds is
			// the parallelism; nesting both would oversubscribe.
			ji, err := core.BuildJoinIndexBudgeted(jobs[i].cc.rel, jobs[i].cols, 1, ex.DB.gauge)
			if err == nil {
				built[i] = ji
			}
		}(i)
	}
	wg.Wait()
	for i, ji := range built {
		if ji == nil {
			continue
		}
		jobs[i].cc.indexes[jobs[i].name] = &Index{Cols: jobs[i].cols, ix: ji}
		ex.Stats.IndexBuilds++
	}
}
