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
	"context"
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
	Cached        bool // true when served from the engine's sub-result cache
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
	C   *cluster.Cluster
	Env *core.Env
	// Force pins the fixpoint plan; Auto runs Splw. Pgplw runs only
	// when forced.
	Force Kind

	// SubResults, when set, is consulted before every fixpoint execution:
	// a hit replaces the whole distributed computation with the cached
	// materialized relation (injected as if it were a base-relation scan),
	// and a single-flight lease makes this planner the one that computes
	// and publishes the result other sessions are waiting on.
	SubResults SubResultProvider

	sess        *cluster.Session // pinned session (NewSessionPlanner), else per-Execute
	fresh       atomic.Int64
	ev          *core.Evaluator
	driverGauge *core.MemGauge
}

// SubResultProvider is the engine's sub-result cache as seen by the
// physical layer. Lookup is called with each fixpoint about to execute:
//
//   - (rel, refreshed, nil, nil): cache hit — rel is the materialized
//     result, shared and read-only; the planner must not mutate it.
//     refreshed is true when the provider first upgraded a stale entry in
//     place from a graph delta before serving it.
//   - (nil, _, complete, nil): single-flight lease — this planner must
//     compute the fixpoint and call complete exactly once with the outcome
//     so waiting sessions unblock (complete(nil, err) on failure).
//   - (nil, _, nil, nil): not cacheable; compute without publishing.
//   - (nil, _, nil, err): the wait for another session's in-flight
//     computation (or this session's refresh) was aborted (context
//     cancelled); fail the query.
type SubResultProvider interface {
	Lookup(fp *core.Fixpoint) (rel *core.Relation, refreshed bool, complete func(*core.Relation, error), err error)
}

// DriverGauge returns the gauge of the driver-side glue evaluator of the
// most recent Execute (nil when Config.TaskMemBytes is 0). Worker-side
// gauges live on the session (Session.Gauges) and aggregate into the
// cluster's (Cluster.Gauges); reports that sum spill counters must include
// the driver gauge too.
func (p *Planner) DriverGauge() *core.MemGauge { return p.driverGauge }

// NewPlanner returns a planner over a cluster and a driver-side database.
// Each Execute runs under a private, non-cancellable session; use
// NewSessionPlanner to execute inside a caller-owned session (per-query
// metrics, gauges and cancellation).
func NewPlanner(c *cluster.Cluster, env *core.Env) *Planner {
	return &Planner{C: c, Env: env}
}

// NewSessionPlanner returns a planner whose Executes run inside s: every
// phase, exchange and broadcast carries s's tag, its metrics and gauges
// count exactly this planner's work, and cancelling s's context aborts the
// driver loop, the workers' local loops and every barrier in flight.
func NewSessionPlanner(s *cluster.Session, env *core.Env) *Planner {
	return &Planner{C: s.Cluster(), Env: env, sess: s}
}

// Execute evaluates t and reports how its fixpoints ran.
func (p *Planner) Execute(t core.Term) (*core.Relation, *Report, error) {
	sess := p.sess
	if sess == nil {
		sess = p.C.NewSession(context.Background())
		defer sess.Close()
	}
	rep := &Report{}
	p.ev = core.NewEvaluator(p.Env)
	p.ev.Ctx = sess.Context()
	if root := p.C.DriverGauge(); root != nil {
		// The driver-side glue evaluator runs under the same per-task
		// budget a worker gets. The gauge is a child of the cluster's
		// driver-lifetime gauge, so concurrent queries share one
		// cumulative driver budget while this query's spill counters stay
		// exact.
		p.driverGauge = core.NewMemGaugeChild(root)
		p.ev.Gauge = p.driverGauge
	}
	defer p.ev.Close()
	p.ev.FixpointHandler = func(fp *core.Fixpoint, _ *core.Env) (*core.Relation, error) {
		return p.runFixpoint(sess, fp, rep)
	}
	rel, err := p.ev.Eval(t)
	if err != nil {
		return nil, nil, err
	}
	return rel, rep, nil
}

// prepared is a fixpoint ready for distributed execution: the constant
// part is materialized, nested constant fixpoints inside φ are
// pre-evaluated and replaced by fresh relation variables, and every free
// relation the φ branches reference is resolved to a driver-side relation
// ready for broadcast.
type prepared struct {
	d        *core.Decomposed
	seed     *core.Relation
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
	// evaluator; nested fixpoints inside it are routed back to this
	// planner by the FixpointHandler installed in Execute.
	seed, err := p.ev.Eval(d.Const)
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
				rel, err := p.runFixpoint(sess, inner, rep)
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
	return &prepared{d: pd, seed: seed, phiRels: phiRels, derived: extra, stable: stable, phiConst: total}, nil
}

// choose returns the plan a fixpoint runs: Force, or Splw under Auto.
func (p *Planner) choose() Kind {
	if p.Force != Auto {
		return p.Force
	}
	return Splw
}

// runFixpoint executes one fixpoint, consulting the sub-result cache
// first: a hit is injected directly (the scan-of-a-base-relation the cost
// model priced it as), a single-flight lease computes once and publishes
// for the sessions waiting on the same fingerprint, and everything else
// computes privately.
func (p *Planner) runFixpoint(sess *cluster.Session, fp *core.Fixpoint, rep *Report) (*core.Relation, error) {
	if p.SubResults != nil {
		rel, refreshed, complete, err := p.SubResults.Lookup(fp)
		if err != nil {
			return nil, err
		}
		if rel != nil {
			rep.Fixpoints = append(rep.Fixpoints, FixpointReport{Cached: true, Refreshed: refreshed, ResultRows: rel.Len()})
			return rel, nil
		}
		if complete != nil {
			out, err := p.computeFixpoint(sess, fp, rep)
			complete(out, err)
			return out, err
		}
	}
	return p.computeFixpoint(sess, fp, rep)
}

func (p *Planner) computeFixpoint(sess *cluster.Session, fp *core.Fixpoint, rep *Report) (*core.Relation, error) {
	pr, err := p.prepare(sess, fp, rep)
	if err != nil {
		return nil, err
	}
	if len(pr.d.PhiBranches) == 0 {
		rep.Fixpoints = append(rep.Fixpoints, FixpointReport{
			Kind: p.choose(), ConstPartRows: pr.seed.Len(), ResultRows: pr.seed.Len(),
		})
		return pr.seed, nil
	}
	kind := p.choose()
	var (
		out *core.Relation
		fr  FixpointReport
	)
	switch kind {
	case Gld:
		out, fr, err = p.runGld(sess, pr)
	case Pgplw:
		out, fr, err = p.runPlw(sess, pr, true)
	default:
		out, fr, err = p.runPlw(sess, pr, false)
	}
	if err != nil {
		return nil, err
	}
	fr.Kind = kind
	fr.ConstPartRows = pr.seed.Len()
	fr.BroadcastRows = pr.phiConst
	fr.ResultRows = out.Len()
	rep.Fixpoints = append(rep.Fixpoints, fr)
	return out, nil
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
// Fig. 3, Ctx.ShipInto) and are absorbed into its X as the frames decode. Each worker keeps its evaluator
// and loop alive for the whole run: the join indexes over the broadcast
// (constant) relations are built once, X stays sharded, and it is
// materialized only once, for the final collect.
func (p *Planner) runGld(sess *cluster.Session, pr *prepared) (*core.Relation, FixpointReport, error) {
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
	// partitions are disjoint.
	if err := sess.RunPhase(func(ctx *cluster.Ctx) error {
		ctx.SetPartition(xDS, tasks[ctx.WorkerID()].loop.Result())
		return nil
	}); err != nil {
		return nil, fr, err
	}
	xDS.MarkDisjoint()
	out, err := sess.Collect(xDS)
	if err != nil {
		return nil, fr, err
	}
	return out, fr, nil
}

// runPlw executes the fixpoint as parallel local loops on the workers
// (§III-A, Prop. 3): the constant part is split (by stable columns when
// available), the φ relations are broadcast once, and each worker runs its
// entire fixpoint without any exchange, on the in-memory evaluator with
// partition-wise set semantics (Ps_plw). usePg selects Ppg_plw, which runs
// the same loop but passes the worker's seed partition and its result
// through marshalBoundary.
func (p *Planner) runPlw(sess *cluster.Session, pr *prepared, usePg bool) (*core.Relation, FixpointReport, error) {
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
	resDS := sess.NewDataset(pr.seed.Cols()...)
	defer sess.Free(resDS)

	d := pr.d
	var (
		mu       sync.Mutex
		maxIters int
	)
	phase := func(ctx *cluster.Ctx) error {
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
		local, err := ev.RunFixpoint(d, part, env)
		if err != nil {
			return err
		}
		if usePg {
			local = marshalBoundary(local)
		}
		mu.Lock()
		maxIters = max(maxIters, ev.Stats.FixpointIterations)
		mu.Unlock()
		ctx.SetPartition(resDS, local)
		return nil
	}
	if err := sess.RunPhase(phase); err != nil {
		return nil, fr, err
	}
	fr.Iterations = maxIters

	final := resDS
	if fr.Partitioned {
		// Split on a stable column, the local fixpoints are provably
		// disjoint (Prop. 3): the collect appends them.
		resDS.MarkDisjoint()
	} else {
		// No stable column: the local fixpoints may overlap; a distinct
		// shuffle performs the deduplicating union of Prop. 3.
		dd, err := sess.Distinct(resDS)
		if err != nil {
			return nil, fr, err
		}
		defer sess.Free(dd)
		final = dd
	}
	out, err := sess.Collect(final)
	if err != nil {
		return nil, fr, err
	}
	return out, fr, nil
}

// marshalBoundary serializes and deserializes every row through a textual
// wire format — the cost Ppg_plw pays to move tuples between the dataflow
// layer and the paper's per-worker PostgreSQL (its client protocol is
// text-based; the paper attributes P pg_plw's overhead on small data to
// exactly this marshalling and transfer, §III-D).
func marshalBoundary(rel *core.Relation) *core.Relation {
	arity := rel.Arity()
	// The round trip is a bijection on rows, so the output is as distinct
	// as the input and is appended, not re-hashed.
	out := core.NewRelation(rel.Cols()...)
	out.ReserveRows(rel.Len())
	var sb strings.Builder
	nrow := make([]core.Value, arity)
	one := core.NewBatchValues(arity, 1, nrow)
	for ri := 0; ri < rel.Len(); ri++ {
		row := rel.RowAt(ri)
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
		out.AppendDistinct(one)
	}
	return out
}
