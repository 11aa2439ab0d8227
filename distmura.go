// Package distmura is a Go implementation of Dist-µ-RA (Chlyah, Genevès,
// Layaïda — "Distributed Evaluation of Graph Queries using Recursive
// Relational Algebra", ICDE 2025): a distributed engine for recursive
// graph queries built on the µ-RA recursive relational algebra.
//
// The engine accepts UCRPQ queries (unions of conjunctions of regular path
// queries, e.g. "?x <- ?x isMarriedTo/livesIn/IsL+/dw+ Argentina"),
// translates them to µ-RA, explores the space of equivalent logical plans
// with the fixpoint-specific rewrite rules of the paper (pushing filters,
// joins and anti-projections into fixpoints, merging and reversing
// fixpoints), selects the cheapest plan with a Selinger-style cost model,
// and evaluates it on a driver/worker dataflow cluster using the paper's
// parallel-local-loops strategy: the fixpoint's constant part is split
// across workers — by a stable column whenever one exists, making the
// local results provably disjoint — and every worker runs its whole
// recursion locally with zero data exchange per iteration.
//
// The API is service-grade: execution is context-first (cancellation and
// timeouts propagate into the fixpoint loops and every cluster barrier),
// one Engine serves any number of goroutines concurrently (each query runs
// in its own tagged cluster session with exact per-query statistics),
// results stream through a Rows cursor that decodes values lazily, and
// Prepare pins an optimized plan for repeated execution — with an
// engine-level plan cache that makes even un-prepared repeat queries skip
// the optimizer until the graph changes.
//
// Basic usage:
//
//	eng, _ := distmura.Open(distmura.Options{Workers: 4})
//	defer eng.Close()
//	eng.AddTriple("alice", "knows", "bob")
//	eng.AddTriple("bob", "knows", "carol")
//	rows, _ := eng.Query(ctx, "?x,?y <- ?x knows+ ?y")
//	defer rows.Close()
//	for rows.Next() { fmt.Println(rows.Strings()) }
package distmura

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graphgen"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// edgeRel is the name the triple relation is bound to in µ-RA terms.
const edgeRel = "G"

// defaultPlanCacheSize bounds the engine plan cache when Options leaves it 0.
const defaultPlanCacheSize = 128

// Retry defaults: a query that loses a worker is re-run up to
// defaultMaxQueryRetries times, with exponential backoff starting at
// defaultRetryBackoff and capped at maxRetryBackoff.
const (
	defaultMaxQueryRetries = 2
	defaultRetryBackoff    = 10 * time.Millisecond
	maxRetryBackoff        = 2 * time.Second
)

// ErrInsufficientWorkers is returned (wrapped, with counts) when the
// cluster has degraded below Options.MinWorkers: the query fails fast
// instead of retrying into a membership that cannot serve it.
var ErrInsufficientWorkers = errors.New("distmura: insufficient live workers")

// Transport selects how workers exchange data.
type Transport int

const (
	// TransportChan keeps the data plane on in-process channels (default).
	TransportChan Transport = iota
	// TransportTCP moves all shuffles, broadcasts and collects over real
	// loopback TCP sockets.
	TransportTCP
)

// Plan selects the physical strategy for fixpoints. It is the physical
// planner's Kind, so both layers share one enum and one String.
type Plan = physical.Kind

const (
	// PlanAuto runs PlanSplw. Spill (Options.TaskMemBytes) handles data
	// larger than memory, so PlanPgplw is only ever a forced baseline.
	PlanAuto = physical.Auto
	// PlanGld is the global-loop-on-driver baseline (one shuffle per
	// fixpoint iteration).
	PlanGld = physical.Gld
	// PlanSplw runs parallel local loops with broadcast joins and
	// partition-wise set operations.
	PlanSplw = physical.Splw
	// PlanPgplw is PlanSplw's loop behind the text boundary: each
	// worker's seed partition and local result cross a textual
	// marshalling boundary (the paper's Spark↔PostgreSQL transfer).
	PlanPgplw = physical.Pgplw
)

// Options configures an Engine.
type Options struct {
	// Workers is the number of worker nodes (default 4).
	Workers int
	// Transport selects the data plane (default in-process channels).
	Transport Transport
	// MaxPlans caps the logical plan space the rewriter explores per
	// translation direction (default rewrite.DefaultMaxPlans, 96).
	MaxPlans int
	// TaskMemBytes is the per-task memory budget in bytes governing
	// operator state at run time: over-budget fixpoint accumulators spill
	// to disk instead of OOMing, while join indexes are charged and stay
	// in memory (0 disables). Each in-flight query gets its own gauge per
	// worker with this budget — exact per-query spill accounting — while
	// the worker's cumulative gauge enforces the same bound across
	// concurrent queries. See
	// ARCHITECTURE.md, "Memory governance" and "Query lifecycle &
	// concurrency".
	TaskMemBytes int64
	// SpillDir is where over-budget operators write temp-file runs
	// ("" = os.TempDir()).
	SpillDir string
	// MaxConcurrentQueries caps the queries admitted to execution at once
	// (0 = unlimited). Further Query/Run calls block until a slot frees —
	// or until their context is cancelled.
	MaxConcurrentQueries int
	// PlanCacheSize bounds the engine's LRU plan cache (0 = a default of
	// 128 entries, negative disables caching).
	PlanCacheSize int
	// SubResultCacheBytes budgets the driver store, the one memo that
	// keeps what the driver derives from the graph across queries: the
	// µ results of the shared sub-result cache (recursive subplans reused
	// across sessions; see ARCHITECTURE.md, "Multi-query optimization"),
	// the operands, fixpoint seeds and query roots, and their join
	// indexes (Engine.OperandMemoStats). 0 inherits TaskMemBytes; when
	// both are 0 residency is metered but unbounded.
	SubResultCacheBytes int64
	// DisableSubResultCache turns the sub-result cache off — the ablation
	// flag for the overlapping-workload benchmark. The driver store then
	// keeps no µ result and nothing that contains a fixpoint, but still
	// keeps the operands, fixpoint seeds and query roots derived from the
	// graph alone.
	DisableSubResultCache bool
	// MaxQueryRetries bounds the automatic re-runs of a query that failed
	// with a worker failure (0 = a default of 2, negative disables
	// retries). Each retry recovers the membership — dead workers are
	// removed, the execution epoch is bumped, and the surviving workers
	// re-absorb the lost partitions when the query re-scatters its data —
	// then re-runs after exponential backoff with jitter. Cancellations
	// and logic errors are never retried.
	MaxQueryRetries int
	// MinWorkers is the membership floor (default 1): a query that would
	// run — or retry — on fewer live workers fails fast with
	// ErrInsufficientWorkers instead of hanging or degrading silently.
	MinWorkers int
	// RetryBackoff is the base delay before the first retry (default
	// 10ms); attempt n waits base×2ⁿ ±50% jitter, capped at 2s.
	RetryBackoff time.Duration
	// HeartbeatInterval enables the cluster's liveness prober: the driver
	// probes every worker over the data plane at this interval and a
	// worker silent past HeartbeatTimeout is declared dead, failing its
	// queries fast with a retryable worker failure instead of letting
	// their barriers hang on a partitioned peer. 0 (the default) disables
	// probing — with in-process transports, failures already surface as
	// errors without it.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a worker may go unheard before being
	// declared dead (default 4× HeartbeatInterval).
	HeartbeatTimeout time.Duration
}

// Engine is a Dist-µ-RA instance: a labeled graph plus a worker cluster.
//
// One Engine serves any number of goroutines: each query executes in its
// own cluster session (frames tagged per query, statistics and spill
// accounting exact per query). Graph mutation (AddTriple, DeleteTriple,
// LoadTSV, UseGraph) is not synchronized with execution, and a Watch's
// evaluations are execution: a write while a query, a cursor or a
// subscribed Watch reads the graph is a data race. Load data, then serve.
type Engine struct {
	opts  Options
	graph *graphgen.Graph
	clust *cluster.Cluster
	plans *planCache
	// operands is the driver store (operands.go): every graph-derived
	// operand, seed, root and µ result the engine keeps, under one budget.
	operands *core.OperandMemo
	// subs is the single-flight lease over the µ results operands keeps
	// (subresult.go); nil when the sub-result cache is disabled.
	subs  *subResultCache
	sem   chan struct{} // admission semaphore; nil = unlimited
	stats statsCache    // the cost model's edge statistics (edgeStats)

	// watchers holds one coalescing wakeup channel per standing Watch
	// subscription (watch.go); every mutation entry point signals them.
	watchMu  sync.Mutex
	watchers map[chan struct{}]struct{}
}

// statsCache holds the edge statistics of one graph state, shared by
// every query optimized at that state.
type statsCache struct {
	mu       sync.Mutex
	graphID  uint64
	gen      uint64
	rel      *cost.RelStats
	computed int // statistics computations so far
}

// Open starts an engine with an empty graph.
func Open(opts Options) (*Engine, error) {
	kind := cluster.TransportChan
	if opts.Transport == TransportTCP {
		kind = cluster.TransportTCP
	}
	c, err := cluster.New(cluster.Config{
		Workers:           opts.Workers,
		Transport:         kind,
		TaskMemBytes:      opts.TaskMemBytes,
		SpillDir:          opts.SpillDir,
		HeartbeatInterval: opts.HeartbeatInterval,
		HeartbeatTimeout:  opts.HeartbeatTimeout,
	})
	if err != nil {
		return nil, err
	}
	cacheSize := opts.PlanCacheSize
	if cacheSize == 0 {
		cacheSize = defaultPlanCacheSize
	}
	e := &Engine{
		opts:  opts,
		graph: graphgen.NewGraph("db"),
		clust: c,
		plans: newPlanCache(cacheSize),
	}
	budget := opts.SubResultCacheBytes
	if budget == 0 {
		budget = opts.TaskMemBytes
	}
	e.operands = core.NewOperandMemo(budget)
	if !opts.DisableSubResultCache {
		e.subs = newSubResultCache(e.operands)
	}
	if opts.MaxConcurrentQueries > 0 {
		e.sem = make(chan struct{}, opts.MaxConcurrentQueries)
	}
	return e, nil
}

// Close releases the cluster and empties the driver store; its hit and
// miss counters stay readable. Queries still in flight fail with a
// transport error; prefer cancelling their contexts first.
func (e *Engine) Close() error {
	e.flushStore()
	return e.clust.Close()
}

// AddTriple inserts one labeled edge. Cached recursive results that read
// the edge's predicate are brought up to date by the semi-naive resume on
// their next use; watchers are notified and re-evaluate through that
// shared cache.
func (e *Engine) AddTriple(src, pred, trg string) {
	e.graph.Add(src, pred, trg)
	e.notifyWatchers()
}

// DeleteTriple removes one labeled edge, reporting whether it was
// present. Cached recursive results that read the edge's predicate are
// maintained through DRed retraction on their next use (or evicted when
// their term cannot be maintained); watchers are notified, re-evaluate
// through that shared cache, and deliver the derived rows that went away
// as WatchDelta.Removed.
func (e *Engine) DeleteTriple(src, pred, trg string) bool {
	if !e.graph.Delete(src, pred, trg) {
		return false
	}
	e.notifyWatchers()
	return true
}

// LoadTSV bulk-loads "src<TAB>pred<TAB>trg" lines, merging them into the
// engine's graph: triples previously inserted via AddTriple (or earlier
// LoadTSV calls) are kept, and all identifiers share one dictionary.
func (e *Engine) LoadTSV(r io.Reader) error {
	if err := e.graph.ReadTSVInto(r); err != nil {
		return err
	}
	e.notifyWatchers()
	return nil
}

// UseGraph replaces the engine's graph with a pre-built one (generator
// output) and flushes the plan cache and the driver store, µ results
// included (cached plans and relations embed constants interned in the
// old graph's dictionary). The workers drop their resident copy of the
// old graph once no query holds it.
func (e *Engine) UseGraph(g *graphgen.Graph) {
	e.graph = g
	e.plans.flush()
	e.flushStore()
	e.clust.RetireResidentBroadcasts()
	e.notifyWatchers()
}

// Graph exposes the underlying graph (advanced use).
func (e *Engine) Graph() *graphgen.Graph { return e.graph }

// Cluster exposes the underlying cluster (advanced use: fault injection,
// membership recovery, liveness inspection).
func (e *Engine) Cluster() *cluster.Cluster { return e.clust }

// GraphStats summarizes the loaded data.
type GraphStats struct {
	Triples    int
	Predicates map[string]int
}

// Stats returns graph statistics.
func (e *Engine) Stats() GraphStats {
	return GraphStats{Triples: e.graph.Edges(), Predicates: e.graph.PredCounts()}
}

// QueryStats describes how a query ran. Every counter is exact for the
// query it describes, even when other queries ran concurrently: traffic is
// counted per cluster session and spills per per-query gauge.
type QueryStats struct {
	Seconds        float64
	PlanSpace      int    // logical plans explored (cached alongside the plan on a hit)
	Plan           string // physical fixpoint plan(s) used
	Partitioned    bool   // stable-column partitioning applied
	Iterations     int    // fixpoint iterations (driver or max local)
	ShufflePhases  int64
	ShuffleRecords int64
	// NetworkBytes counts every byte this query put on the wire. The
	// graph's broadcast is not among them once it is resident on the
	// workers: only the first query after a graph change (a mutation,
	// UseGraph) or a membership change (a recovery, a revived worker)
	// pays it; concurrent queries that wait for that send do not.
	NetworkBytes int64
	// PlanCacheHit is true when the optimizer was skipped because the
	// engine plan cache held a plan costed at the current graph
	// generation. Prepared is true for Stmt.Run executions (which skip the
	// optimizer by construction).
	PlanCacheHit bool
	Prepared     bool
	// EstimatedPeakBytes is the cost model's prediction of peak
	// operator-owned memory for the chosen plan; ExpectSpill is true when
	// it exceeds Options.TaskMemBytes (the estimator setting the gauge).
	EstimatedPeakBytes float64
	ExpectSpill        bool
	// Spills/SpilledBytes count the memory-governance events this query
	// caused — and only this query, measured on its own per-worker gauges.
	Spills       int64
	SpilledBytes int64
	// SubResultHits counts this query's fixpoints served straight from the
	// engine's shared sub-result cache, including each fixpoint inside a
	// driver operand — or the query's root — the driver store served
	// (Engine.OperandMemoStats); SubResultWaits
	// counts fixpoints that joined another session's in-flight
	// computation (single-flight) instead of recomputing. See
	// Engine.SubResultCacheStats for the engine-wide view.
	SubResultHits  int64
	SubResultWaits int64
	// Refreshes counts this query's cached fixpoints that were stale from
	// insert-only writes and were upgraded in place (delta-seeded
	// semi-naive resume) before being served; RefreshRows is the total
	// rows those upgrades added. A refreshed fixpoint also counts as a
	// SubResultHit. When the pending delta carried edge removals, the
	// upgrade runs DRed first: Retractions counts the cached rows phase 1
	// over-deleted for this query's refreshes, RederivedRows how many of
	// those the rederivation phases salvaged.
	Refreshes     int64
	RefreshRows   int64
	Retractions   int64
	RederivedRows int64
	// Fault-tolerance outcome: RetryCount is how many epoch-bumped re-runs
	// this query needed after worker failures, RecoveredWorkers how many
	// dead workers its retries removed from the membership, and
	// WastedBytes the network traffic of the failed attempts — work thrown
	// away and re-derived. All zero on a fault-free run.
	RetryCount       int
	RecoveredWorkers int
	WastedBytes      int64
}

// Result is a fully materialized query result with interned values
// rendered back to strings — what Rows.Collect returns, and what the
// deprecated pre-context entry points produce.
type Result struct {
	Columns []string
	Rows    [][]string
	Stats   QueryStats
}

// queryConfig carries per-query options.
type queryConfig struct {
	plan       Plan
	noOptimize bool
	maxPlans   int
}

// QueryOption customizes one Query call.
type QueryOption func(*queryConfig)

// WithPlan forces a physical fixpoint plan.
func WithPlan(p Plan) QueryOption { return func(c *queryConfig) { c.plan = p } }

// WithoutOptimization evaluates the naive left-to-right translation
// (useful for ablation and debugging).
func WithoutOptimization() QueryOption { return func(c *queryConfig) { c.noOptimize = true } }

// queryConfig folds the options over the engine defaults.
func (e *Engine) queryConfig(opts []QueryOption) queryConfig {
	cfg := queryConfig{maxPlans: e.opts.MaxPlans}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxPlans <= 0 {
		cfg.maxPlans = rewrite.DefaultMaxPlans
	}
	return cfg
}

// Query parses, optimizes and executes a UCRPQ, returning a streaming
// cursor over the result. Cancellation of ctx aborts admission, the
// optimizer hand-off, every cluster barrier and every fixpoint iteration;
// the call then returns ctx.Err() with all query resources released.
// Repeat queries skip the optimizer via the engine plan cache (see
// PlanCacheStats); use Prepare to pin a plan explicitly.
func (e *Engine) Query(ctx context.Context, text string, opts ...QueryOption) (*Rows, error) {
	cfg := e.queryConfig(opts)
	term, planSpace, mp, hit, err := e.optimizeCached(ctx, text, cfg)
	if err != nil {
		return nil, err
	}
	rows, err := e.run(ctx, term, cfg, nil)
	if err != nil {
		return nil, err
	}
	rows.stats.PlanSpace = planSpace
	rows.stats.EstimatedPeakBytes = mp.PeakBytes
	rows.stats.ExpectSpill = mp.ExpectSpill
	rows.stats.PlanCacheHit = hit
	return rows, nil
}

// QueryCollect is Query followed by Rows.Collect — the one-shot
// convenience for callers that want the whole result in memory.
func (e *Engine) QueryCollect(ctx context.Context, text string, opts ...QueryOption) (*Result, error) {
	rows, err := e.Query(ctx, text, opts...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// QueryTerm executes a µ-RA term directly (advanced API for queries beyond
// UCRPQ, e.g. the non-regular same-generation family). Extra relations may
// be bound through env; the triple relation is always bound as "G".
func (e *Engine) QueryTerm(ctx context.Context, term core.Term, extra map[string]*core.Relation, opts ...QueryOption) (*Rows, error) {
	return e.run(ctx, term, e.queryConfig(opts), extra)
}

// Explanation describes the optimizer's view of a query.
type Explanation struct {
	Query      string
	PlanSpace  int
	Best       string // chosen logical plan (µ-RA term)
	BestCost   float64
	Alternates []string // a few next-best plans with costs
}

// Explain optimizes without executing. It runs the selection Query runs,
// so Best is the plan Query executes and PlanSpace the space it chose from.
func (e *Engine) Explain(ctx context.Context, text string) (*Explanation, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	q, err := ucrpq.ParseUnion(text)
	if err != nil {
		return nil, err
	}
	best, planSpace, ranking, err := e.selectPlan(q, e.queryConfig(nil))
	if err != nil {
		return nil, err
	}
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	sort.SliceStable(ranking, func(i, j int) bool { return ranking[i].Cost < ranking[j].Cost })
	ex := &Explanation{Query: q.String(), PlanSpace: planSpace, Best: best.String()}
	if len(ranking) > 0 {
		ex.BestCost = ranking[0].Cost
	}
	for i := 1; i < len(ranking) && i <= 3; i++ {
		ex.Alternates = append(ex.Alternates,
			fmt.Sprintf("cost=%.3g %s", ranking[i].Cost, ranking[i].Plan))
	}
	return ex, nil
}

// selectPlan is the optimizer: the plan space of q, ranked by the §IV
// cost model against the current graph's edge statistics, and its
// cheapest plan. Query (through optimize) and Explain both run it.
func (e *Engine) selectPlan(q *ucrpq.UnionQuery, cfg queryConfig) (best core.Term, planSpace int, ranking []cost.Ranked, err error) {
	plans, err := e.planSpace(q, cfg)
	if err != nil {
		return nil, 0, nil, err
	}
	cat := cost.NewCatalog()
	cat.Bind(edgeRel, e.edgeStats())
	// Plans whose recursive subplans the sub-result cache already holds
	// (or is computing for another session right now) cost only their
	// scan, so plan selection converges on shareable shapes.
	cat.Cached = e.cachedTermPredicate()
	best, ranking = cost.SelectBest(plans, cat)
	return best, len(plans), ranking, nil
}

// edgeStats returns the statistics of the current graph's triple
// relation, computed once per graph state: (Graph.ID, Generation) changes
// on UseGraph and on every insert or delete.
func (e *Engine) edgeStats() *cost.RelStats {
	g := e.graph
	id, gen := g.ID(), g.Generation()
	sc := &e.stats
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.rel == nil || sc.graphID != id || sc.gen != gen {
		sc.rel = cost.StatsOf(g.Triples)
		sc.graphID, sc.gen = id, gen
		sc.computed++
	}
	return sc.rel
}

func (e *Engine) planSpace(q *ucrpq.UnionQuery, cfg queryConfig) ([]core.Term, error) {
	ltr, err := ucrpq.TranslateUnion(q, edgeRel, e.graph.Dict, rpq.LeftToRight)
	if err != nil {
		return nil, err
	}
	rtl, err := ucrpq.TranslateUnion(q, edgeRel, e.graph.Dict, rpq.RightToLeft)
	if err != nil {
		return nil, err
	}
	if cfg.noOptimize {
		return []core.Term{ltr}, nil
	}
	rw := rewrite.NewRewriter(core.SchemaEnv{edgeRel: e.graph.Triples.Cols()})
	rw.MaxPlans = cfg.maxPlans
	return rw.ExploreBoth(ltr, rtl), nil
}

// optimizeCached consults the engine plan cache before running the full
// optimizer. Cached entries carry the footprint of the predicates their
// plan reads and stay valid while exactly those predicates are unchanged:
// a write to an unrelated predicate no longer re-optimizes this query
// (its statistics drift marginally, but the paper's §IV cost-based choice
// is driven by the relations the plan actually touches).
func (e *Engine) optimizeCached(ctx context.Context, text string, cfg queryConfig) (core.Term, int, cost.MemPlan, bool, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, 0, cost.MemPlan{}, false, err
	}
	graph := e.graph
	key := cfg.cacheKey(text)
	if pe, ok := e.plans.get(key, graph); ok {
		return pe.term, pe.planSpace, pe.mem, true, nil
	}
	term, planSpace, mp, err := e.optimize(text, cfg)
	if err != nil {
		return nil, 0, cost.MemPlan{}, false, err
	}
	// The plan cache only ever holds certified plans: a term the plan
	// checker rejects here would be replayed on every later execution
	// of this query text.
	if _, err := core.Schema(term, core.SchemaEnv{edgeRel: graph.Triples.Cols()}); err != nil {
		return nil, 0, cost.MemPlan{}, false, err
	}
	e.plans.put(key, planEntry{term: term, mem: mp, planSpace: planSpace,
		fp: snapshotFootprint(graph, term)})
	return term, planSpace, mp, false, nil
}

func (e *Engine) optimize(text string, cfg queryConfig) (core.Term, int, cost.MemPlan, error) {
	q, err := ucrpq.ParseUnion(text)
	if err != nil {
		return nil, 0, cost.MemPlan{}, err
	}
	best, planSpace, ranking, err := e.selectPlan(q, cfg)
	if err != nil {
		return nil, 0, cost.MemPlan{}, err
	}
	// The §IV cost estimator also sets the memory expectation for the chosen
	// plan: the runtime gauges carry Options.TaskMemBytes, and this
	// prediction says whether they are expected to spill. The winner's
	// estimate is already in the ranking; no re-estimation.
	var mp cost.MemPlan
	for _, r := range ranking {
		if r.Plan == best {
			mp = cost.MemPlanFromEstimate(r.Est, e.opts.TaskMemBytes)
			break
		}
	}
	return best, planSpace, mp, nil
}

// acquire takes an admission slot (when MaxConcurrentQueries caps them),
// waiting until one frees or ctx is cancelled. The returned release must
// be called exactly once.
func (e *Engine) acquire(ctx context.Context) (func(), error) {
	if e.sem == nil {
		return func() {}, nil
	}
	select {
	case e.sem <- struct{}{}:
		return func() { <-e.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// effective retry knobs (Options' zero values mean "default").
func (e *Engine) maxQueryRetries() int {
	switch {
	case e.opts.MaxQueryRetries < 0:
		return 0
	case e.opts.MaxQueryRetries == 0:
		return defaultMaxQueryRetries
	default:
		return e.opts.MaxQueryRetries
	}
}

func (e *Engine) minWorkers() int {
	if e.opts.MinWorkers <= 0 {
		return 1
	}
	return e.opts.MinWorkers
}

func (e *Engine) retryBackoff() time.Duration {
	if e.opts.RetryBackoff <= 0 {
		return defaultRetryBackoff
	}
	return e.opts.RetryBackoff
}

// sleepBackoff waits the exponential-backoff delay for retry attempt n
// (base×2ⁿ with ±50% jitter, capped at maxRetryBackoff), honoring ctx.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) error {
	d := base << attempt
	if d <= 0 || d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	// Jitter decorrelates the retries of queries that failed together.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryState accumulates fault-tolerance outcomes across a query's
// attempts.
type retryState struct {
	retries     int
	recovered   int
	wastedBytes int64
}

// run executes an already-chosen term, retrying on worker failure: each
// attempt runs in a fresh cluster session (a new execution epoch — frames
// of the failed attempt are discarded at demux by tag), and between
// attempts the membership is recovered (dead workers removed, epoch
// bumped) so the re-scatter lands the lost partitions on survivors. The
// admission slot is held across retries: a retrying query is still one
// query. Cancellations and logic errors surface immediately.
func (e *Engine) run(ctx context.Context, term core.Term, cfg queryConfig, extra map[string]*core.Relation) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Every term the engine executes — optimizer output, plan-cache hit,
	// or a caller-supplied QueryTerm — passes the plan checker first:
	// an ill-formed plan fails here with typed diagnostics instead of
	// a runtime panic or a silently wrong distributed run.
	senv := core.SchemaEnv{edgeRel: e.graph.Triples.Cols()}
	for name, rel := range extra {
		senv = senv.With(name, rel.Cols())
	}
	if _, err := core.Schema(term, senv); err != nil {
		return nil, err
	}

	release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	maxRetries := e.maxQueryRetries()
	minWorkers := e.minWorkers()
	if live := len(e.clust.LiveWorkers()); live < minWorkers {
		return nil, fmt.Errorf("%w: %d live, %d required", ErrInsufficientWorkers, live, minWorkers)
	}
	var rs retryState
	for attempt := 0; ; attempt++ {
		rows, err := e.runOnce(ctx, term, cfg, extra, &rs)
		if err == nil {
			rows.stats.RetryCount = rs.retries
			rows.stats.RecoveredWorkers = rs.recovered
			rows.stats.WastedBytes = rs.wastedBytes
			return rows, nil
		}
		if cluster.Classify(ctx, err) != cluster.WorkerFailure || attempt >= maxRetries {
			return nil, err
		}
		removed, live := e.clust.Recover()
		rs.recovered += len(removed)
		if live < minWorkers {
			return nil, fmt.Errorf("%w after removing workers %v: %d live, %d required (last failure: %v)",
				ErrInsufficientWorkers, removed, live, minWorkers, err)
		}
		rs.retries++
		if serr := sleepBackoff(ctx, e.retryBackoff(), attempt); serr != nil {
			return nil, serr
		}
	}
}

// runOnce executes one attempt inside its own cluster session and returns
// the streaming cursor. Every cluster resource is released before the
// cursor is handed out: execution is complete, only string decoding is
// lazy. The cursor reads the result with at most one copy after the
// workers' accumulators: a root fixpoint's rows are the frames the workers
// shipped from their accumulators, or the relation the driver store
// keeps, read in place through the root's renames; any other root is
// read in place from the driver store when the engine keeps it, so a warm
// query evaluates nothing (physical.Planner.ExecuteStream). On failure the
// attempt's network traffic is charged to rs.wastedBytes.
func (e *Engine) runOnce(ctx context.Context, term core.Term, cfg queryConfig, extra map[string]*core.Relation, rs *retryState) (*Rows, error) {
	env := core.NewEnv()
	env.Bind(edgeRel, e.graph.Triples)
	for name, rel := range extra {
		env.Bind(name, rel)
	}
	// One session per query: frames tagged, metrics and spill gauges
	// private, every barrier cancellable through ctx.
	sess := e.clust.NewSession(ctx)
	defer sess.Close()
	planner := physical.NewSessionPlanner(sess, env)
	planner.Force = cfg.plan
	// The driver store serves every query that does not rebind the triple
	// relation itself (QueryTerm may shadow "G" with an arbitrary relation
	// the store knows nothing about): its operands, seeds and root. It
	// keeps µ results, and what contains them, only through the shared
	// sub-result cache, and not for a query that forces a physical plan —
	// WithPlan is a request to actually execute that strategy (the plan
	// comparison and ablation surface), which a cache hit would silently
	// skip.
	var prov *operandProvider
	if extra[edgeRel] == nil {
		prov = &operandProvider{ctx: ctx, memo: e.operands, graph: e.graph}
		if cfg.plan == PlanAuto {
			prov.subs = e.subs
		}
		planner.Operands = prov
	}
	start := time.Now()
	it, n, rep, err := planner.ExecuteStream(term)
	if err != nil {
		// Whatever this attempt shipped over the network is now waste: the
		// retry starts from the driver-held inputs.
		rs.wastedBytes += sess.Metrics().Snapshot().NetworkBytes()
		return nil, err
	}
	elapsed := time.Since(start)

	// The session's counters are this query's exactly — no before/after
	// diff against engine-global state, so overlapping queries cannot
	// misattribute each other's traffic or spills.
	m := sess.Metrics().Snapshot()
	var spills, spilled int64
	for _, g := range sess.Gauges() {
		spills += g.Spills()
		spilled += g.SpilledBytes()
	}
	// The driver-side glue evaluator has its own per-query gauge, not
	// listed in the session's worker gauges.
	if dg := planner.DriverGauge(); dg != nil {
		spills += dg.Spills()
		spilled += dg.SpilledBytes()
	}

	kinds := map[string]bool{}
	partitioned := false
	var hits int64
	for _, f := range rep.Fixpoints {
		if f.Cached {
			hits++
			if f.Refreshed {
				kinds["refreshed"] = true
			} else {
				kinds["cached"] = true
			}
			continue
		}
		kinds[f.Kind.String()] = true
		partitioned = partitioned || f.Partitioned
	}
	var ks []string
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	plan := "none"
	if len(ks) > 0 {
		plan = fmt.Sprint(ks)
	}
	stats := QueryStats{
		Seconds:        elapsed.Seconds(),
		Plan:           plan,
		Partitioned:    partitioned,
		Iterations:     rep.Iterations(),
		ShufflePhases:  m.ShufflePhases,
		ShuffleRecords: m.ShuffleRecords,
		NetworkBytes:   m.NetworkBytes(),
		Spills:         spills,
		SpilledBytes:   spilled,
	}
	if prov != nil && prov.subs != nil {
		stats.SubResultHits = hits
		stats.SubResultWaits = prov.waits
		stats.Refreshes = prov.refreshes
		stats.RefreshRows = prov.refreshRows
		stats.Retractions = prov.retractions
		stats.RederivedRows = prov.rederived
	}
	return newRows(e.graph.Dict, it, n, stats), nil
}
