// Package physical implements the PhysicalPlanGenerator of Dist-µ-RA
// (§III): the distributed execution strategies for recursive µ-RA terms on
// the cluster substrate.
//
//   - Pgld — "global loop on the driver" (§III-C.1): the natural Spark
//     implementation of semi-naive iteration. The recursion variable lives
//     as a row-hash-partitioned dataset; every iteration evaluates φ on the
//     delta partitions and repartitions the produced tuples (one shuffle
//     barrier per iteration) so the union/difference can deduplicate.
//
//   - Ps_plw — "parallel local loops on the workers", Spark variant
//     (§III-D): the constant part is split across workers (by stable
//     columns when they exist, §III-B), the relations of the variable part
//     are broadcast, and each worker runs its whole fixpoint locally with
//     partition-wise set operations (the SetRDD pattern) — no data exchange
//     during the loop. When the split used a stable column the local
//     results are provably disjoint and the final distinct is skipped.
//
//   - Ppg_plw — Ps_plw's loop behind the text boundary: each worker runs
//     the same local fixpoint, but its seed partition and its result cross
//     a textual marshalling boundary on the way in and out — the
//     Spark↔PostgreSQL iterator boundary the paper charges this plan for
//     (§III-D).
//
// Under Auto every fixpoint runs Ps_plw. The paper (§III-D) picks Ppg_plw
// when φ's constant data exceeds task memory, because PostgreSQL works out
// of core; here core's spill (cluster.Config.TaskMemBytes) lets every plan
// work out of core, so Ppg_plw — Ps_plw plus a text round trip — would
// only be slower. It stays a plan you can force, as the Fig. 5 baseline.
package physical

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Kind selects a physical plan for fixpoints.
type Kind int

const (
	// Auto runs Splw: spill handles data larger than memory, and Pgplw
	// is only ever a forced baseline.
	Auto Kind = iota
	// Gld is the global-loop-on-driver baseline Pgld.
	Gld
	// Splw is P s_plw: parallel local loops with broadcast joins.
	Splw
	// Pgplw is P pg_plw: Splw's local loops behind the text boundary.
	Pgplw
)

func (k Kind) String() string {
	switch k {
	case Gld:
		return "Pgld"
	case Splw:
		return "Ps_plw"
	case Pgplw:
		return "Ppg_plw"
	default:
		return "auto"
	}
}

// FixpointReport describes how one fixpoint was executed.
type FixpointReport struct {
	Kind          Kind
	StableCols    []string
	Partitioned   bool // true when split on stable columns (distinct skipped)
	Cached        bool // true when served from the engine's operand memo, or covered by a memo hit on an operand containing it (ResultRows then 0)
	Refreshed     bool // true when the cached entry was first upgraded in place from a graph delta
	Iterations    int  // driver loop count (Gld) or max local iterations (Pplw)
	ConstPartRows int
	BroadcastRows int
	ResultRows    int
}

// Report accumulates per-fixpoint execution details of a query.
type Report struct {
	Fixpoints []FixpointReport
}

// Iterations sums iteration counts across fixpoints.
func (r *Report) Iterations() int {
	total := 0
	for _, f := range r.Fixpoints {
		total += f.Iterations
	}
	return total
}

// Planner executes µ-RA terms: non-recursive operators run on the driver
// (the glue Spark's Catalyst handles in the paper) through the core
// streaming iterator pipeline, and every fixpoint is executed
// distributively on the cluster with the selected plan (hooked into the
// pipeline via the evaluator's FixpointHandler).
type Planner struct {
	Env *core.Env
	// Force pins the fixpoint plan; Auto runs Splw. Pgplw runs only
	// when forced.
	Force Kind

	// Operands, when set, serves what the engine keeps across queries —
	// the sides of the driver's joins and antijoins, every fixpoint's
	// constant part and value, and the root of an ExecuteStream — with
	// their join indexes.
	Operands OperandProvider

	sess        *cluster.Session
	fresh       atomic.Int64
	ev          *core.Evaluator
	driverGauge *core.MemGauge
}

// OperandProvider is what the engine keeps across queries, as seen by the
// physical layer: consulted for every constant operand of the driver's
// glue evaluation, for every fixpoint's constant part, for every
// fixpoint's value (runFixpoint alone asks for a bare fixpoint) and for a
// streamed root that is not a rename chain over a fixpoint. Operand
// returns the kept operand for t with its join indexes, calling derive to
// compute the relation on a miss, and reports how it was served. A nil
// operand means the engine does not keep t (derive was not called). For a
// fixpoint, the provider holds a single-flight lease while derive runs:
// another query asking for the same fixpoint meanwhile waits for the
// result instead of computing it too. A hit stands in for every outermost
// fixpoint inside t, and each is reported as served from the cache.
type OperandProvider interface {
	Operand(t core.Term, derive func() (*core.Relation, error)) (op *core.Operand, hit Hit, err error)
}

// Hit says how an OperandProvider served an operand.
type Hit int

const (
	// Miss: derive computed it now, or the engine does not keep it.
	Miss Hit = iota
	// Kept: the engine kept it from an earlier query, at this graph state.
	Kept
	// Refreshed: the engine kept a fixpoint's value from an earlier graph
	// state and first brought it up to date from the graph's delta.
	Refreshed
)

// operandStore is the driver evaluator's view of the operand memo: it
// reports the fixpoints a memo hit covers. It never asks for a bare
// fixpoint: its derive would enter runFixpoint, which asks for the same
// fixpoint and would wait on the lease this call holds.
type operandStore struct {
	ops OperandProvider
	rep *Report
}

func (s operandStore) Operand(t core.Term, derive func() (*core.Relation, error)) (*core.Operand, error) {
	if _, ok := t.(*core.Fixpoint); ok {
		return nil, nil
	}
	op, hit, err := s.ops.Operand(t, derive)
	if hit != Miss {
		core.Walk(t, func(n core.Term) bool {
			if _, ok := n.(*core.Fixpoint); ok {
				s.rep.Fixpoints = append(s.rep.Fixpoints, FixpointReport{Cached: true})
				return false
			}
			return true
		})
	}
	return op, err
}

// DriverGauge returns the gauge of the driver-side glue evaluator of the
// most recent Execute (nil when Config.TaskMemBytes is 0). Worker-side
// gauges live on the session (Session.Gauges) and aggregate into the
// cluster's (Cluster.Gauges); reports that sum spill counters must include
// the driver gauge too.
func (p *Planner) DriverGauge() *core.MemGauge { return p.driverGauge }

// NewSessionPlanner returns a planner over a driver-side database whose
// Executes run inside s: every phase, exchange and broadcast carries s's
// tag, its metrics and gauges count exactly this planner's work, and
// cancelling s's context aborts the driver loop, the workers' local loops
// and every barrier in flight.
func NewSessionPlanner(s *cluster.Session, env *core.Env) *Planner {
	return &Planner{Env: env, sess: s}
}

// Execute evaluates t and reports how its fixpoints ran.
func (p *Planner) Execute(t core.Term) (*core.Relation, *Report, error) {
	rep := &Report{}
	defer p.begin(rep)()
	rel, err := p.ev.Eval(t)
	if err != nil {
		return nil, nil, err
	}
	return rel, rep, nil
}

// ExecuteStream evaluates t for a cursor that reads the result once, in
// order, and returns the stream with its exact row count. When t is a
// chain of renames over a fixpoint, the fixpoint's value is read through
// the chain in place (core.RenamedStream): the relation the sub-result
// cache holds or this query collected, or — for a fixpoint nothing keeps —
// the frames the workers shipped. Any other t is the operand memo's
// relation when the engine keeps t, read in place (a hit evaluates
// nothing), else it is evaluated as Execute evaluates it, into a relation
// of its own. The stream never aliases a relation a write can change: the
// memo keeps no bare variable (the triple relation reads every predicate,
// a caller's binding is not derived from it), and a bare variable root is
// copied.
func (p *Planner) ExecuteStream(t core.Term) (core.Iterator, int, *Report, error) {
	rep := &Report{}
	defer p.begin(rep)()
	chain, base := core.PeelRenames(t)
	fp, ok := base.(*core.Fixpoint)
	if !ok {
		rel, _, err := p.memoized(t)
		if err != nil {
			return nil, 0, nil, err
		}
		if _, bound := t.(*core.Var); bound {
			rel = rel.Clone()
		}
		return core.ScanRelation(rel), rel.Len(), rep, nil
	}
	if _, err := core.Schema(t, p.Env.SchemaEnv()); err != nil {
		return nil, 0, nil, err
	}
	rel, frames, err := p.runFixpoint(p.sess, fp, rep, true)
	if err != nil {
		return nil, 0, nil, err
	}
	var (
		it core.Iterator
		n  int
	)
	if frames != nil {
		it, n = frames.Scan(), frames.Len()
	} else {
		it, n = core.ScanRelation(rel), rel.Len()
	}
	it, err = core.RenamedStream(it, chain)
	if err != nil {
		return nil, 0, nil, err
	}
	return it, n, rep, nil
}

// begin sets up the driver-side glue evaluator of one execution, reporting
// its fixpoints into rep, and returns its release.
func (p *Planner) begin(rep *Report) func() {
	sess := p.sess
	p.ev = core.NewEvaluator(p.Env)
	p.ev.Ctx = sess.Context()
	if root := sess.Cluster().DriverGauge(); root != nil {
		// The driver-side glue evaluator runs under the same per-task
		// budget a worker gets. The gauge is a child of the cluster's
		// driver-lifetime gauge, so concurrent queries share one
		// cumulative driver budget while this query's spill counters stay
		// exact.
		p.driverGauge = core.NewMemGaugeChild(root)
		p.ev.Gauge = p.driverGauge
	}
	if p.Operands != nil {
		p.ev.Operands = operandStore{ops: p.Operands, rep: rep}
	}
	p.ev.FixpointHandler = func(fp *core.Fixpoint, _ *core.Env) (*core.Relation, error) {
		rel, _, err := p.runFixpoint(sess, fp, rep, false)
		return rel, err
	}
	return p.ev.Close
}

// prepared is a fixpoint ready for distributed execution: the constant
// part is materialized, nested constant fixpoints inside φ are
// pre-evaluated and replaced by fresh relation variables, and every free
// relation the φ branches reference is resolved to a driver-side relation
// ready for broadcast.
type prepared struct {
	d        *core.Decomposed
	seed     *core.Relation
	shared   bool                      // seed is the operand memo's, read by later queries
	phiRels  map[string]*core.Relation // name → relation to broadcast
	derived  map[string]*core.Relation // the phiRels computed by nested fixpoints
	stable   []string
	phiConst int // total rows of the φ constant relations (FixpointReport.BroadcastRows)
}

func (p *Planner) prepare(sess *cluster.Session, fp *core.Fixpoint, rep *Report) (*prepared, error) {
	d, err := core.Decompose(fp)
	if err != nil {
		return nil, err
	}
	// The constant part evaluates on the driver through the streaming
	// evaluator, or comes from the operand memo; nested fixpoints inside
	// it are routed back to this planner by the FixpointHandler installed
	// in Execute.
	seed, shared, err := p.memoized(d.Const)
	if err != nil {
		return nil, err
	}
	// Materialize nested fixpoints inside φ (constant in X under Fcond) so
	// the workers only see flat relational steps.
	extra := map[string]*core.Relation{}
	branches := make([]core.Term, len(d.PhiBranches))
	for i, br := range d.PhiBranches {
		var walkErr error
		branches[i] = core.Rewrite(br, func(s core.Term) core.Term {
			if walkErr != nil {
				return s
			}
			if inner, ok := s.(*core.Fixpoint); ok {
				rel, _, err := p.runFixpoint(sess, inner, rep, false)
				if err != nil {
					walkErr = err
					return s
				}
				name := fmt.Sprintf("@mat%d", p.fresh.Add(1))
				extra[name] = rel
				return &core.Var{Name: name}
			}
			return s
		})
		if walkErr != nil {
			return nil, walkErr
		}
	}
	pd := &core.Decomposed{X: d.X, Const: d.Const, PhiBranches: branches}

	// Resolve every free variable the φ branches use.
	phiRels := map[string]*core.Relation{}
	total := 0
	for _, br := range branches {
		for _, v := range core.FreeVars(br) {
			if v == d.X {
				continue
			}
			if _, done := phiRels[v]; done {
				continue
			}
			if r, ok := extra[v]; ok {
				phiRels[v] = r
			} else if r, ok := p.Env.Lookup(v); ok {
				phiRels[v] = r
			} else {
				return nil, fmt.Errorf("physical: unbound relation %q in fixpoint body", v)
			}
			total += phiRels[v].Len()
		}
	}
	schemaEnv := p.Env.SchemaEnv()
	for name, r := range extra {
		schemaEnv[name] = r.Cols()
	}
	stable, err := core.StableCols(pd, schemaEnv)
	if err != nil {
		return nil, err
	}
	return &prepared{d: pd, seed: seed, shared: shared, phiRels: phiRels, derived: extra, stable: stable, phiConst: total}, nil
}

// memoized returns the value of a term the engine may keep across
// queries — a fixpoint's constant part, or the query's root: the operand
// memo's, when the engine keeps t (shared is then true), else evaluated on
// the driver.
func (p *Planner) memoized(t core.Term) (rel *core.Relation, shared bool, err error) {
	if p.ev.Operands != nil {
		op, err := p.ev.Operands.Operand(t, func() (*core.Relation, error) { return p.ev.Eval(t) })
		if err != nil {
			return nil, false, err
		}
		if op != nil {
			return op.Rel(), true, nil
		}
	}
	rel, err = p.ev.Eval(t)
	return rel, false, err
}

// choose returns the plan a fixpoint runs: Force, or Splw under Auto.
func (p *Planner) choose() Kind {
	if p.Force != Auto {
		return p.Force
	}
	return Splw
}

// runFixpoint executes one fixpoint, asking the operand memo first: a
// hit is injected directly (the scan-of-a-base-relation the cost model
// priced it as), a miss the memo keeps is computed under its
// single-flight lease for the sessions waiting on the same fixpoint, and
// everything else computes privately. The value is a relation, except for
// a root fixpoint (root) that nothing keeps: that one is the frames the
// workers shipped, left for the cursor to scan.
func (p *Planner) runFixpoint(sess *cluster.Session, fp *core.Fixpoint, rep *Report, root bool) (*core.Relation, *cluster.Frames, error) {
	if p.Operands != nil {
		op, hit, err := p.Operands.Operand(fp, func() (*core.Relation, error) {
			rel, _, err := p.computeFixpoint(sess, fp, rep, false)
			return rel, err
		})
		if err != nil {
			return nil, nil, err
		}
		if hit != Miss {
			rep.Fixpoints = append(rep.Fixpoints, FixpointReport{Cached: true, Refreshed: hit == Refreshed, ResultRows: op.Rel().Len()})
		}
		if op != nil {
			return op.Rel(), nil, nil
		}
	}
	return p.computeFixpoint(sess, fp, rep, root)
}

// computeFixpoint runs one fixpoint on the cluster. The workers ship their
// disjoint results to the driver; keepFrames returns those frames as they
// arrived, else they are copied into one relation sized once.
func (p *Planner) computeFixpoint(sess *cluster.Session, fp *core.Fixpoint, rep *Report, keepFrames bool) (*core.Relation, *cluster.Frames, error) {
	pr, err := p.prepare(sess, fp, rep)
	if err != nil {
		return nil, nil, err
	}
	if len(pr.d.PhiBranches) == 0 {
		rep.Fixpoints = append(rep.Fixpoints, FixpointReport{
			Kind: p.choose(), ConstPartRows: pr.seed.Len(), ResultRows: pr.seed.Len(),
		})
		seed := pr.seed
		if _, bound := pr.d.Const.(*core.Var); bound || pr.shared {
			// The constant part is a bound relation itself, or the memo's:
			// a copy, so the result never aliases what a write can change
			// or what later queries read.
			seed = seed.Clone()
		}
		return seed, nil, nil
	}
	kind := p.choose()
	var (
		frames *cluster.Frames
		fr     FixpointReport
	)
	switch kind {
	case Gld:
		frames, fr, err = p.runGld(sess, pr)
	case Pgplw:
		frames, fr, err = p.runPlw(sess, pr, true)
	default:
		frames, fr, err = p.runPlw(sess, pr, false)
	}
	if err != nil {
		return nil, nil, err
	}
	fr.Kind = kind
	fr.ConstPartRows = pr.seed.Len()
	fr.BroadcastRows = pr.phiConst
	fr.ResultRows = frames.Len()
	rep.Fixpoints = append(rep.Fixpoints, fr)
	if keepFrames {
		return nil, frames, nil
	}
	return frames.Relation(true), nil, nil
}

// broadcastPhiRels ships the φ constant relations to all workers and
// returns handles keyed by relation name. A relation the environment
// binds stays resident on the workers for later fixpoints and queries
// while its version and the membership hold (Session.AcquireBroadcast);
// one a nested fixpoint derived is sent for this fixpoint alone.
func (p *Planner) broadcastPhiRels(sess *cluster.Session, pr *prepared) (map[string]*cluster.Broadcast, func(), error) {
	handles := map[string]*cluster.Broadcast{}
	var releases []func()
	release := func() {
		for _, r := range releases {
			r()
		}
	}
	for name, rel := range pr.phiRels {
		bound := name
		if _, ok := pr.derived[name]; ok {
			bound = ""
		}
		h, done, err := sess.AcquireBroadcast(bound, rel)
		if err != nil {
			release()
			return nil, nil, err
		}
		handles[name] = h
		releases = append(releases, done)
	}
	return handles, release, nil
}

// localEnv rebuilds a core.Env on a worker from the broadcast handles.
func localEnv(ctx *cluster.Ctx, handles map[string]*cluster.Broadcast) (*core.Env, error) {
	env := core.NewEnv()
	for name, h := range handles {
		r, err := ctx.BroadcastValue(h)
		if err != nil {
			return nil, err
		}
		env.Bind(name, r)
	}
	return env, nil
}

// runGld executes the fixpoint with a global loop on the driver: the
// recursion variable X is a row-hash-partitioned dataset, and each driver
// iteration is one phase in which every worker takes one step of core's
// semi-naive loop over its partition. A step computes φ(delta) and routes
// each produced tuple by its row hash as it drains: a tuple the worker
// owns goes straight into its X, any other into the owner's shuffle
// filter, whose new rows ship to the owner (the per-iteration shuffle of
// Fig. 3, Ctx.ShipInto) and are absorbed into its X as the frames decode.
// Each worker keeps its evaluator and loop alive for the whole run: the
// join indexes over the broadcast (constant) relations are built once, X
// stays sharded, and the final gather reads it in place.
func (p *Planner) runGld(sess *cluster.Session, pr *prepared) (*cluster.Frames, FixpointReport, error) {
	fr := FixpointReport{StableCols: pr.stable}
	handles, freeB, err := p.broadcastPhiRels(sess, pr)
	if err != nil {
		return nil, fr, err
	}
	defer freeB()

	xDS, err := sess.Parallelize(pr.seed, pr.seed.Cols())
	if err != nil {
		return nil, fr, err
	}
	defer sess.Free(xDS)

	type gldWorker struct {
		ev   *core.Evaluator
		loop *core.FixpointLoop
	}
	tasks := make([]gldWorker, sess.NumWorkers())
	defer func() {
		for _, t := range tasks {
			if t.loop != nil {
				t.loop.Close()
				t.ev.Close()
			}
		}
	}()
	for {
		// The driver's global loop is the natural cancellation point of
		// Pgld: a cancelled query stops before scheduling the next
		// iteration (and the barriers inside the phase abort on their own).
		if err := sess.Err(); err != nil {
			return nil, fr, err
		}
		var added atomic.Int64
		err := sess.RunPhase(func(ctx *cluster.Ctx) error {
			w := ctx.WorkerID()
			if tasks[w].loop == nil {
				env, err := localEnv(ctx, handles)
				if err != nil {
					return err
				}
				ev := core.NewEvaluator(env)
				ev.Gauge = ctx.Gauge()
				ev.Ctx = ctx.Context()
				loop := ev.NewFixpointLoop(pr.d, ctx.Partition(xDS), env)
				tasks[w] = gldWorker{ev: ev, loop: loop}
			}
			n, err := tasks[w].loop.Step(ctx)
			added.Add(int64(n))
			return err
		})
		if err != nil {
			return nil, fr, err
		}
		fr.Iterations++
		if added.Load() == 0 {
			break
		}
	}
	// Every row of X lives on the worker its row hash names, so the
	// partitions are disjoint: each worker ships its X straight from the
	// accumulator.
	frames, err := sess.Gather(pr.seed.Cols(), func(ctx *cluster.Ctx, ship func(cluster.Source) error) error {
		return ship(tasks[ctx.WorkerID()].loop.X())
	})
	return frames, fr, err
}

// runPlw executes the fixpoint as parallel local loops on the workers
// (§III-A, Prop. 3): the constant part is split (by stable columns when
// available), the φ relations are broadcast once, and each worker runs its
// entire fixpoint without any exchange, on the in-memory evaluator with
// partition-wise set semantics (Ps_plw). usePg selects Ppg_plw, which runs
// the same loop but passes the worker's seed partition and its result
// through marshalBoundary.
//
// Split on a stable column, the local fixpoints are provably disjoint
// (Prop. 3), so each worker ships its X to the driver at the end of the
// fixpoint phase, straight from the accumulator. Without one they may
// overlap: each worker stores its X as a partition, and a distinct
// shuffle performs the deduplicating union before the gather.
func (p *Planner) runPlw(sess *cluster.Session, pr *prepared, usePg bool) (*cluster.Frames, FixpointReport, error) {
	fr := FixpointReport{StableCols: pr.stable}
	handles, freeB, err := p.broadcastPhiRels(sess, pr)
	if err != nil {
		return nil, fr, err
	}
	defer freeB()

	byCols := pr.stable
	if len(byCols) == 0 {
		byCols = nil
	}
	fr.Partitioned = byCols != nil
	seedDS, err := sess.Parallelize(pr.seed, byCols)
	if err != nil {
		return nil, fr, err
	}
	defer sess.Free(seedDS)

	cols := pr.seed.Cols()
	var (
		mu       sync.Mutex
		maxIters int
	)
	// local runs one worker's fixpoint and hands its result to done
	// before the loop's accumulator is released.
	local := func(ctx *cluster.Ctx, done func(cluster.Source) error) error {
		part := ctx.Partition(seedDS)
		if usePg {
			part = marshalBoundary(part)
		}
		env, err := localEnv(ctx, handles)
		if err != nil {
			return err
		}
		ev := core.NewEvaluator(env)
		ev.Gauge = ctx.Gauge()
		ev.Ctx = ctx.Context()
		defer ev.Close()
		loop := ev.NewFixpointLoop(pr.d, part, env)
		defer loop.Close()
		if err := loop.Run(); err != nil {
			return err
		}
		mu.Lock()
		maxIters = max(maxIters, ev.Stats.FixpointIterations)
		mu.Unlock()
		if usePg {
			return done(marshalBoundary(loop.X()))
		}
		return done(loop.X())
	}
	if fr.Partitioned {
		frames, err := sess.Gather(cols, local)
		fr.Iterations = maxIters
		return frames, fr, err
	}
	resDS := sess.NewDataset(cols...)
	defer sess.Free(resDS)
	if err := sess.RunPhase(func(ctx *cluster.Ctx) error {
		return local(ctx, func(x cluster.Source) error {
			ctx.SetPartition(resDS, materialize(x))
			return nil
		})
	}); err != nil {
		return nil, fr, err
	}
	fr.Iterations = maxIters
	dd, err := sess.Distinct(resDS)
	if err != nil {
		return nil, fr, err
	}
	defer sess.Free(dd)
	frames, err := sess.Gather(cols, func(ctx *cluster.Ctx, ship func(cluster.Source) error) error {
		return ship(ctx.Partition(dd))
	})
	return frames, fr, err
}

// materialize returns a local result as a relation: X copied out of
// its accumulator, or Ppg_plw's relation itself.
func materialize(src cluster.Source) *core.Relation {
	if x, ok := src.(*core.Accumulator); ok {
		return x.Materialize()
	}
	return src.(*core.Relation)
}

// marshalBoundary serializes and deserializes every row through a textual
// wire format — the cost Ppg_plw pays to move tuples between the dataflow
// layer and the paper's per-worker PostgreSQL (its client protocol is
// text-based; the paper attributes P pg_plw's overhead on small data to
// exactly this marshalling and transfer, §III-D).
func marshalBoundary(rel cluster.Source) *core.Relation {
	arity := len(rel.Cols())
	// The round trip is a bijection on rows, so the output is as distinct
	// as the input and is appended, not re-hashed.
	out := core.NewRelation(rel.Cols()...)
	out.ReserveRows(rel.Len())
	var sb strings.Builder
	nrow := make([]core.Value, arity)
	one := core.NewBatchValues(arity, 1, nrow)
	_ = rel.Scan(func(b *core.Batch) error { // f never fails, so neither does Scan
		for ri := 0; ri < b.Len(); ri++ {
			marshalRow(&sb, b.Row(ri), nrow)
			out.AppendDistinct(one)
		}
		return nil
	})
	return out
}

// marshalRow writes row as text into sb and parses it back into nrow.
func marshalRow(sb *strings.Builder, row, nrow []core.Value) {
	sb.Reset()
	for i, v := range row {
		if i > 0 {
			sb.WriteByte('\t')
		}
		sb.WriteString(strconv.FormatInt(int64(v), 10))
	}
	fields := strings.Split(sb.String(), "\t")
	for i, f := range fields {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			panic("physical: marshal boundary round-trip failed: " + err.Error())
		}
		nrow[i] = core.Value(n)
	}
}
