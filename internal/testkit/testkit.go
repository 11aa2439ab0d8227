// Package testkit is the engine's differential test harness: it generates
// random labeled graphs and random RPQ/UCRPQ queries, evaluates every
// query along five independent routes — the seed's materializing
// reference evaluator, the centralized streaming evaluator, and the three
// distributed fixpoint plans (Pgld on the cluster substrate, Ps_plw,
// Ppg_plw) — and asserts that all routes produce the same result set,
// order-insensitively (core.SameRows).
//
// The harness exists because the fixpoint data plane is deliberately
// nondeterministic: X lives in a sharded cross-iteration accumulator whose
// insertion order depends on hash routing and worker scheduling, so
// "same rows, any order" is the only contract the engine makes. A bounded
// run is wired into `go test ./...` (see differential_test.go); larger
// sweeps can be run by calling RunDifferential with bigger Options.
package testkit

import (
	"fmt"
	"math/rand"
	"strings"

	distmura "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// GraphKind selects a random-graph topology.
type GraphKind int

const (
	// Chain is a labeled path graph n0→n1→…: maximal fixpoint depth.
	Chain GraphKind = iota
	// Cycle is a chain with the closing edge: every closure saturates.
	Cycle
	// Random is a sparse Erdős–Rényi-style multigraph: wide deltas.
	Random
	// Clustered is a random graph over few nodes with many parallel
	// labeled edges: dense joins and heavy duplicate production.
	Clustered
	numGraphKinds
)

func (k GraphKind) String() string {
	switch k {
	case Chain:
		return "chain"
	case Cycle:
		return "cycle"
	case Random:
		return "random"
	default:
		return "clustered"
	}
}

// Graph is one generated test graph: labeled triples plus the node and
// label vocabularies the query generator draws from.
type Graph struct {
	Kind   GraphKind
	G      *graphgen.Graph
	Nodes  []string
	Labels []string
}

// Desc renders a short description for failure messages.
func (g *Graph) Desc() string {
	return fmt.Sprintf("%s nodes=%d labels=%d edges=%d",
		g.Kind, len(g.Nodes), len(g.Labels), g.G.Edges())
}

// RandomGraph generates a graph of the given kind with nodes n0..n{n-1}
// and labels l0..l{labels-1}, deterministically from rng.
func RandomGraph(rng *rand.Rand, kind GraphKind, nodes, labels int) *Graph {
	if nodes < 2 {
		nodes = 2
	}
	if labels < 1 {
		labels = 1
	}
	g := &Graph{Kind: kind, G: graphgen.NewGraph("testkit")}
	for i := 0; i < nodes; i++ {
		g.Nodes = append(g.Nodes, fmt.Sprintf("n%d", i))
	}
	for i := 0; i < labels; i++ {
		g.Labels = append(g.Labels, fmt.Sprintf("l%d", i))
	}
	lab := func() string { return g.Labels[rng.Intn(len(g.Labels))] }
	node := func() string { return g.Nodes[rng.Intn(len(g.Nodes))] }
	switch kind {
	case Chain, Cycle:
		for i := 0; i+1 < nodes; i++ {
			g.G.Add(g.Nodes[i], lab(), g.Nodes[i+1])
		}
		if kind == Cycle {
			g.G.Add(g.Nodes[nodes-1], lab(), g.Nodes[0])
		}
	case Random:
		for i := 0; i < 3*nodes; i++ {
			g.G.Add(node(), lab(), node())
		}
	default: // Clustered: few nodes, many parallel labeled edges
		for i := 0; i < 6*nodes; i++ {
			g.G.Add(g.Nodes[rng.Intn(1+nodes/2)], lab(), node())
		}
	}
	return g
}

// RandomPathExpr generates a random regular path expression over the
// given labels: concatenation, alternation, inverse steps and transitive
// closure, to the given depth.
func RandomPathExpr(rng *rand.Rand, labels []string, depth int) rpq.Expr {
	if depth <= 0 {
		return &rpq.Label{Name: labels[rng.Intn(len(labels))], Inverse: rng.Intn(4) == 0}
	}
	sub := func() rpq.Expr { return RandomPathExpr(rng, labels, depth-1) }
	switch rng.Intn(5) {
	case 0:
		return &rpq.Concat{Parts: []rpq.Expr{sub(), sub()}}
	case 1:
		return &rpq.Alt{Parts: []rpq.Expr{sub(), sub()}}
	case 2, 3:
		// Bias toward closures: they are what the fixpoint plans execute.
		return &rpq.Plus{Sub: sub()}
	default:
		return sub()
	}
}

// hasPlus reports whether e contains a transitive closure.
func hasPlus(e rpq.Expr) bool {
	switch n := e.(type) {
	case *rpq.Plus:
		return true
	case *rpq.Concat:
		for _, p := range n.Parts {
			if hasPlus(p) {
				return true
			}
		}
	case *rpq.Alt:
		for _, p := range n.Parts {
			if hasPlus(p) {
				return true
			}
		}
	}
	return false
}

// RandomQuery generates a random UCRPQ in the paper's surface syntax over
// the graph's vocabulary: single-atom and conjunctive two-atom forms,
// variable and constant endpoints, and occasional UNIONs. Nearly every
// query contains at least one transitive closure, so the distributed
// fixpoint plans actually run.
func RandomQuery(rng *rand.Rand, g *Graph) string {
	expr := func() rpq.Expr {
		e := RandomPathExpr(rng, g.Labels, 1+rng.Intn(2))
		if !hasPlus(e) && rng.Intn(4) != 0 {
			e = &rpq.Plus{Sub: e}
		}
		return e
	}
	constant := func() string { return g.Nodes[rng.Intn(len(g.Nodes))] }
	switch rng.Intn(6) {
	case 0: // both endpoints variables
		return fmt.Sprintf("?x,?y <- ?x %s ?y", expr())
	case 1: // constant object
		return fmt.Sprintf("?x <- ?x %s %s", expr(), constant())
	case 2: // constant subject
		return fmt.Sprintf("?x <- %s %s ?x", constant(), expr())
	case 3: // conjunction joining through a dropped middle variable
		return fmt.Sprintf("?x,?y <- ?x %s ?z, ?z %s ?y", expr(), expr())
	case 4: // conjunction with a constant anchor
		return fmt.Sprintf("?x <- ?x %s ?z, ?z %s %s", expr(), expr(), constant())
	default: // union of two disjuncts over the same head
		return fmt.Sprintf("?x,?y <- ?x %s ?y UNION ?x,?y <- ?x %s ?y", expr(), expr())
	}
}

// Plans are the distributed fixpoint strategies the differential harness
// compares against the materializing reference.
var Plans = []physical.Kind{physical.Gld, physical.Splw, physical.Pgplw}

// Options bounds one differential run.
type Options struct {
	// Seed drives all generation; runs are deterministic per seed.
	Seed int64
	// Graphs is the number of random graphs (default 8).
	Graphs int
	// QueriesPerGraph is the number of random queries per graph (default 9).
	QueriesPerGraph int
	// Workers is the cluster size (default 4).
	Workers int
	// Transport selects the cluster data plane (default in-process chans).
	Transport cluster.TransportKind
	// MaxIter caps reference fixpoints as a hang guard (default 2000).
	MaxIter int
	// TaskMemBytes, when > 0, starves every budgeted route (the streaming
	// evaluator and all three distributed plans) so their accumulators and
	// join indexes must spill to disk — the differential check of the
	// memory-governance layer. The materializing reference always runs
	// unbudgeted.
	TaskMemBytes int64
	// SpillDir is where starved runs spill ("" = os.TempDir()).
	SpillDir string
	// InjectFaults adds a sixth route per query: the engine's retry layer
	// under a randomly aimed worker kill (see faults.go). Every fuzzed
	// query must survive the fault with reference-equal rows.
	InjectFaults bool
}

func (o *Options) fill() {
	if o.Graphs <= 0 {
		o.Graphs = 8
	}
	if o.QueriesPerGraph <= 0 {
		o.QueriesPerGraph = 9
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
}

// Report summarizes a differential run.
type Report struct {
	Graphs  int
	Queries int
	// Combos counts (graph, query, plan) combinations whose result was
	// checked against the reference evaluator.
	Combos int
	// ResultRows sums the reference result sizes — a guard against a run
	// that "agrees" only because every query came back empty.
	ResultRows int
	// Iterations sums distributed fixpoint iterations across all plans.
	Iterations int
	// Spills counts gauge spill events across all budgeted routes — the
	// guard that a starved run actually exercised the spill paths.
	Spills int64
	// RouteSpills splits that guard by route ("streaming", "Pgld",
	// "Ps_plw", "Ppg_plw"): a starved run must show every route freezing
	// rows (Spills) and probing or scanning them back (Reads), not just
	// one of them on the others' behalf.
	RouteSpills map[string]SpillCount
	// FaultRoutes counts queries checked through the fault route, and
	// FaultRetries how many of those actually retried after the injected
	// kill — the guard that a fault run exercised the recovery path rather
	// than finishing every query before the kill phase.
	FaultRoutes  int
	FaultRetries int
	// VerifiedPlans counts plans certified by the plan checker
	// (core.Schema) during the run: the translated term of every fuzzed
	// query plus its explored rewrite space. VerifierViolations counts
	// rejected terms and discarded rewrite candidates; the harness fails
	// on the first one, so a finished run must report it as 0.
	VerifiedPlans      int
	VerifierViolations int
}

// SpillCount is one route's share of a starved run's spill traffic.
type SpillCount struct {
	Spills int64 // spill events (core.MemGauge.Spills)
	Reads  int64 // positioned reads of spill runs (core.MemGauge.SpillReads)
}

// noteSpills accounts the spill traffic the gauges saw since before into
// the route's share and the run's total.
func (rep *Report) noteSpills(route string, before SpillCount, gauges ...*core.MemGauge) {
	now := spillCount(gauges...)
	if rep.RouteSpills == nil {
		rep.RouteSpills = map[string]SpillCount{}
	}
	rs := rep.RouteSpills[route]
	rs.Spills += now.Spills - before.Spills
	rs.Reads += now.Reads - before.Reads
	rep.RouteSpills[route] = rs
	rep.Spills += now.Spills - before.Spills
}

// spillCount sums the gauges' cumulative spill counters (nil gauges count
// nothing).
func spillCount(gauges ...*core.MemGauge) SpillCount {
	var n SpillCount
	for _, g := range gauges {
		n.Spills += g.Spills()
		n.Reads += g.SpillReads()
	}
	return n
}

// newCluster builds the cluster a run's distributed routes execute on.
func newCluster(opts Options) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Workers:      opts.Workers,
		Transport:    opts.Transport,
		TaskMemBytes: opts.TaskMemBytes,
		SpillDir:     opts.SpillDir,
	})
}

// RunDifferential runs the harness under the given options, returning a
// summary or the first mismatch as an error. Every generated query is
// evaluated by the materializing reference, the centralized streaming
// evaluator, and all three distributed plans; any disagreement on the
// result set (order-insensitive) is a failure.
func RunDifferential(opts Options) (Report, error) {
	opts.fill()
	rep := Report{}
	rng := rand.New(rand.NewSource(opts.Seed))
	c, err := newCluster(opts)
	if err != nil {
		return rep, err
	}
	defer c.Close()
	for gi := 0; gi < opts.Graphs; gi++ {
		kind := GraphKind(gi % int(numGraphKinds))
		g := RandomGraph(rng, kind, 6+rng.Intn(18), 1+rng.Intn(3))
		rep.Graphs++
		var eng *distmura.Engine
		if opts.InjectFaults {
			if eng, err = newFaultEngine(opts, g); err != nil {
				return rep, err
			}
		}
		for qi := 0; qi < opts.QueriesPerGraph; qi++ {
			query := RandomQuery(rng, g)
			rep.Queries++
			want, err := runCase(c, g, query, opts, &rep)
			if err == nil && eng != nil {
				err = runFaultCase(eng, rng, g, query, want, &rep)
			}
			if err != nil {
				if eng != nil {
					eng.Close()
				}
				return rep, fmt.Errorf("graph %d (%s), query %q: %w", gi, g.Desc(), query, err)
			}
		}
		if eng != nil {
			eng.Close()
		}
	}
	return rep, nil
}

// RunCase evaluates one query on one graph through every route on a
// private cluster built from opts (transport, workers, budget) — the entry
// point for single-case variants: the loopback-TCP differential test, a
// starved closure big enough to compact its runs.
func RunCase(opts Options, g *Graph, query string) (Report, error) {
	opts.fill()
	var rep Report
	c, err := newCluster(opts)
	if err != nil {
		return rep, err
	}
	defer c.Close()
	_, err = runCase(c, g, query, opts, &rep)
	return rep, err
}

// RunTermCase is RunCase for a hand-built µ-RA term over the graph's
// triple relation "G": plan shapes the UCRPQ translation never emits
// (anti-projections over anti-projections, unions or renames at the root
// of a pipeline) go through every route all the same.
func RunTermCase(transport cluster.TransportKind, workers int, g *Graph, term core.Term) error {
	c, err := cluster.New(cluster.Config{Workers: workers, Transport: transport})
	if err != nil {
		return err
	}
	defer c.Close()
	var rep Report
	_, err = runRoutes(c, g, term, Options{MaxIter: 2000}, &rep)
	return err
}

// runCase parses, translates and certifies the query, then evaluates it
// along every route (runRoutes), accounting the checked combinations into
// rep. It returns the reference relation so extra routes (the fault route)
// can reuse it.
func runCase(c *cluster.Cluster, g *Graph, query string, opts Options, rep *Report) (*core.Relation, error) {
	q, err := ucrpq.ParseUnion(query)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	term, err := ucrpq.TranslateUnion(q, "G", g.G.Dict, rpq.LeftToRight)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	// Static certification before anything executes: the translated term
	// must pass the µ-RA plan checker, and exploring its (bounded) rewrite
	// space may discard no candidate — the rewriter admits only checked
	// plans. The engine re-checks on its own paths; this check covers the
	// planner routes that bypass the engine.
	senv := core.SchemaEnv{"G": g.G.Triples.Cols()}
	if _, err := core.Schema(term, senv); err != nil {
		rep.VerifierViolations++
		return nil, fmt.Errorf("translated term: %w", err)
	}
	rw := rewrite.NewRewriter(senv)
	rw.MaxPlans = 64 // bounded: certification sweep, not plan selection
	rep.VerifiedPlans += len(rw.Explore(term))
	if discarded := rw.AuditViolations + rw.DroppedIllFormed; discarded > 0 {
		rep.VerifierViolations += discarded
		return nil, fmt.Errorf("rewriter discarded %d candidates: %v", discarded, rw.LastAudit)
	}
	return runRoutes(c, g, term, opts, rep)
}

// runRoutes evaluates term along every route and compares all results
// against the materializing reference, which it returns.
func runRoutes(c *cluster.Cluster, g *Graph, term core.Term, opts Options, rep *Report) (*core.Relation, error) {
	maxIter := opts.MaxIter
	env := core.NewEnv()
	env.Bind("G", g.G.Triples)

	// Route 1: the seed's materializing evaluator — the reference
	// semantics every other route must reproduce. Always unbudgeted.
	ref := core.NewEvaluator(env)
	defer ref.Close()
	ref.Materializing = true
	ref.MaxIter = maxIter
	want, err := ref.Eval(term)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	rep.ResultRows += want.Len()

	// Route 2: the centralized streaming pipeline with the concurrent
	// accumulator. Parallel is forced above 1 so the worker-pool path is
	// eligible even on a 1-CPU runner (deltas must still clear the
	// ParallelPlan chunk threshold to engage it). Under a starved run it
	// gets its own budget gauge and must spill its way to the same rows.
	streaming := core.NewEvaluator(env)
	streaming.MaxIter = maxIter
	streaming.Parallel = 3
	var gauge *core.MemGauge
	if opts.TaskMemBytes > 0 {
		gauge = core.NewMemGauge(opts.TaskMemBytes, opts.SpillDir)
		streaming.Gauge = gauge
	}
	got, err := streaming.Eval(term)
	streaming.Close()
	rep.noteSpills("streaming", SpillCount{}, gauge)
	if err != nil {
		return nil, fmt.Errorf("streaming: %w", err)
	}
	if !core.SameRows(got, want) {
		return nil, mismatch("streaming", got, want)
	}

	// Routes 3–5: the distributed plans.
	gauges := append(c.Gauges(), c.DriverGauge())
	for _, kind := range Plans {
		p := physical.NewPlanner(c, env)
		p.Force = kind
		before := spillCount(gauges...)
		rel, prep, err := p.Execute(term)
		rep.noteSpills(kind.String(), before, gauges...)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", kind, err)
		}
		rep.Combos++
		rep.Iterations += prep.Iterations()
		if !core.SameRows(rel, want) {
			return nil, mismatch(kind.String(), rel, want)
		}
	}
	return want, nil
}

// mismatch renders a compact row-set diff for a failed comparison.
func mismatch(route string, got, want *core.Relation) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s produced %d rows, reference %d", route, got.Len(), want.Len())
	miss, extra := 0, 0
	for i := 0; i < want.Len() && miss < 5; i++ {
		if !got.Has(want.RowAt(i)) {
			fmt.Fprintf(&sb, "\n  missing %v", want.RowAt(i))
			miss++
		}
	}
	for i := 0; i < got.Len() && extra < 5; i++ {
		if !want.Has(got.RowAt(i)) {
			fmt.Fprintf(&sb, "\n  extra %v", got.RowAt(i))
			extra++
		}
	}
	return fmt.Errorf("%s", sb.String())
}
