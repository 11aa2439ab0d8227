package main

import (
	distmura "repro"
	"repro/internal/graphgen"
)

// metricSpec names one metric the benchmark emits. Bound is the share of
// the baseline median by which an end-to-end metric may worsen before
// -compare (and the driver reading BENCHMARK.json) calls it a regression;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a caller holding an Engine pays for. BENCHMARK.json
// repeats this table; bench_test.go asserts the two agree.
//
// The time bounds are what this box supports: ten runs at ten seeds spread
// (first to third quartile, as a share of the median) by up to 14 % on
// op_ms_p50 and ops_per_s — about half of it from run to run at one seed,
// and no smaller at a longer run — and a bound has to stay well clear of
// the spread. alloc_mb_per_op repeats to 0.02 % at one seed; its spread,
// up to 10 % on serve-overlap, is the inputs'. README.md has the numbers.
var endToEnd = []metricSpec{
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// diagnostics are printed by every untraced run and gated by -compare
// only. They cannot sit in BENCHMARK.json's end_to_end list, which wants
// every metric non-zero and steady on every workload: net_bytes_per_op is
// 0 wherever the sub-result cache serves the op (serve-overlap,
// live-mutate), and a p99 needs more than ten samples beyond it, which
// only the single queries of serve-overlap collect in one run.
var diagnostics = []metricSpec{
	{"net_bytes_per_op", "B", "lower", 0.01},
	{"query_ms_p99", "ms", "lower", 0.10},
}

// p99Workload is the only workload whose query_ms_p99 -compare gates.
const p99Workload = "serve-overlap"

// perLayer lists the traced run's metrics, prefixed by the module that
// does the work. Times are per-op means (so stage times add up to the op),
// counts are per op unless the name says ratio.
var perLayer = []metricSpec{
	{"ucrpq.parse_translate_ms", "ms", "lower", 0},
	{"rewrite.explore_ms", "ms", "lower", 0},
	{"rewrite.plans_explored", "count", "lower", 0},
	{"rewrite.plan_cap_hits", "count", "lower", 0},
	{"rewrite.verify_ms", "ms", "lower", 0},
	{"cost.select_ms", "ms", "lower", 0},
	{"cost.card_qerror_p50", "ratio", "lower", 0},
	{"cluster.scatter_ms", "ms", "lower", 0},
	{"cluster.scatter_bytes", "B", "lower", 0},
	{"cluster.shuffle_phases", "count", "lower", 0},
	{"cluster.shuffle_records", "count", "lower", 0},
	{"cluster.net_bytes", "B", "lower", 0},
	{"cluster.exchange_chan_mb_per_s", "MB/s", "higher", 0},
	{"cluster.exchange_tcp_mb_per_s", "MB/s", "higher", 0},
	{"physical.execute_ms", "ms", "lower", 0},
	{"physical.iterations", "count", "lower", 0},
	{"physical.fixpoints_gld", "count", "lower", 0},
	{"physical.fixpoints_splw", "count", "lower", 0},
	{"physical.fixpoints_pgplw", "count", "lower", 0},
	{"core.central_eval_ms", "ms", "lower", 0},
	{"core.spills", "count", "lower", 0},
	{"core.spilled_bytes", "B", "lower", 0},
	{"localdb.pg_execute_ms", "ms", "lower", 0},
	{"graphgen.mutate_us_per_edge", "us", "lower", 0},
	{"repro.query_call_ms", "ms", "lower", 0},
	{"repro.render_ms", "ms", "lower", 0},
	{"repro.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"repro.subresult_hit_ratio", "ratio", "higher", 0},
	{"repro.refreshes", "count", "lower", 0},
	{"repro.refresh_rows", "count", "lower", 0},
	{"repro.retractions", "count", "lower", 0},
	{"repro.rederived_rows", "count", "lower", 0},
	{"repro.rederive_ratio", "ratio", "lower", 0},
	{"repro.watch_delivery_ms", "ms", "lower", 0},
	{"repro.unattributed_ms", "ms", "lower", 0},
	{"repro.traced_op_ms_p50", "ms", "lower", 0},
}

// scale fixes every input size. "full" is what BENCHMARK.json measures;
// "smoke" is the same code on inputs small enough for `go test`.
type scale struct {
	name       string
	yago       int   // graphgen.Yago scale of yago-cold and serve-overlap
	closureN   int   // ErdosRenyi(n, erDegree/n) nodes of the closure-* workloads
	spillBytes int64 // TaskMemBytes of closure-spill: below the unbudgeted per-task peak by enough that every seed spills
	mutateN    int   // ErdosRenyi(n, erDegree/n) nodes of live-mutate
	exchRows   int   // rows of the fixed relation of the cluster exchange probe
}

var scales = map[string]scale{
	"full":  {name: "full", yago: 2500, closureN: 500, spillBytes: 1536 << 10, mutateN: 350, exchRows: 200_000},
	"smoke": {name: "smoke", yago: 120, closureN: 80, spillBytes: 24 << 10, mutateN: 60, exchRows: 5_000},
}

// erDegree is the mean out-degree of the random graphs. At 4 nearly every
// node is in the giant strongly connected component, so the closure is
// within 2 % of n² rows whatever the seed; at 2 or 3 its size, and with it
// every metric, moves by 5-10 % from seed to seed.
const erDegree = 4

// call is one Engine.Query: the query text, the physical plan forced on it
// (PlanAuto forces none) and the id its expected result is filed under.
type call struct {
	id   string
	text string
	plan distmura.Plan
}

// yagoPool is the paper's Fig. 7 (Q1–Q25 on Yago) minus Q13–Q15, which
// run for seconds; minus Q5 and Q11, whose naive left-to-right
// translation — what the oracle evaluates — takes 107 s and 8 s on
// Yago(2500); and minus Q12 and Q20, whose cost follows the size of one
// random hub and moves 2-5x from seed to seed, more than the rest of the
// pool together. The texts are copied here so that the benchmark's inputs
// change only when this file does.
var yagoPool = []call{
	{id: "Q1", text: "?x,?y <- ?x hasChild+ ?y"},
	{id: "Q2", text: "?x,?y <- ?x isConnectedTo+ ?y"},
	{id: "Q3", text: "?x <- ?x isMarriedTo/livesIn/IsL+/dw+ Argentina"},
	{id: "Q4", text: "?x <- ?x livesIn/IsL+/dw+ United_States"},
	{id: "Q6", text: "?area <- wce -type/(IsL+/dw|dw) ?area"},
	{id: "Q7", text: "?person <- ?person isMarriedTo+/owns/IsL+|owns/IsL+ USA"},
	{id: "Q8", text: "?x,?y <- ?x IsL+/dw+ ?y"},
	{id: "Q9", text: "?x,?y <- ?x (IsL|dw|rdfs:subClassOf|isConnectedTo)+ ?y"},
	{id: "Q10", text: "?x <- ?x (isConnectedTo/-isConnectedTo)+ S_Airport"},
	{id: "Q16", text: "?x <- Marie_Curie (hWP/-hWP)+ ?x"},
	{id: "Q17", text: "?x <- London -wasBornIn/(playsFor/-playsFor)+ ?x"},
	{id: "Q18", text: "?x <- London (-wasBornIn/hWP/-hWP/wasBornIn)+ ?x"},
	{id: "Q19", text: "?x,?y <- ?x -actedIn/(-created/influences/created)+ ?y"},
	{id: "Q21", text: "?x,?y <- ?x (-created/created)+/directed ?y"},
	{id: "Q22", text: "?y <- Lionel_Messi (playsFor/-playsFor)+/isAff ?y"},
	{id: "Q23", text: "?x <- SH (haa|influences)+/(isMarriedTo|hasChild)+ ?x"},
	{id: "Q24", text: "?x,?y <- ?x isConnectedTo+/IsL+/dw+/owns+ ?y"},
	{id: "Q25", text: "?x,?y <- ?x haa/hasChild/(hWP/-hWP)+ ?y"},
}

const closureText = "?x,?y <- ?x e+ ?y"

// mutateQueries are live-mutate's standing queries; the first is also
// watched.
var mutateQueries = []call{
	{id: "reach-n0", text: "?y <- n0 e+ ?y"},
	{id: "closure", text: closureText},
	{id: "reach-to-n1", text: "?x <- ?x e+ n1"},
}

// workload is one named set of inputs. An op is the unit every end-to-end
// metric counts: all calls of the op issued back to back, each timed from
// the call into Engine until its last row is rendered and the cursor
// closed. An op of several different calls keeps op times in one mode: the
// median over single queries of unlike cost jumps between them from seed
// to seed. live-mutate has no static op; its runner defines it.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop goroutines. With more than
	// one, each issues the calls of every op in a seeded order of its own.
	clients int
	// replay makes the traced run re-execute each call stage by stage
	// through the layers' public functions.
	replay  bool
	options func(sc scale, spillDir string) distmura.Options
	graph   func(sc scale, seed int64) *graphgen.Graph
	op      []call
	// exercised is checked against the run's summed QueryStats: each
	// workload must use the layer it was chosen for and bypass the one it
	// was chosen to bypass.
	exercised func(t totals) string
}

func yagoGraph(sc scale, seed int64) *graphgen.Graph { return graphgen.Yago(sc.yago, seed) }

func closureGraph(sc scale, seed int64) *graphgen.Graph {
	return graphgen.ErdosRenyi(sc.closureN, erDegree/float64(sc.closureN), []string{"e"}, seed)
}

func mutateGraph(sc scale, seed int64) *graphgen.Graph {
	return graphgen.ErdosRenyi(sc.mutateN, erDegree/float64(sc.mutateN), []string{"e"}, seed)
}

// closureOp is the full closure once under each of plans.
func closureOp(plans ...distmura.Plan) []call {
	op := make([]call, len(plans))
	for i, p := range plans {
		op[i] = call{id: "closure", text: closureText, plan: p}
	}
	return op
}

// workloads are the six sets of inputs, in the order `go run .` runs them.
// BENCHMARK.json repeats names and reasons.
var workloads = []*workload{
	{
		name:    "yago-cold",
		why:     "18 Fig. 7 queries, both caches off: each pays parse, explore, verify and cost before a 10-130 ms run, so ucrpq, rewrite, cost and the per-query scatter do most of the work",
		clients: 1, replay: true,
		options: func(scale, string) distmura.Options {
			return distmura.Options{Workers: 4, PlanCacheSize: -1, DisableSubResultCache: true}
		},
		graph: yagoGraph,
		op:    yagoPool,
		exercised: func(t totals) string {
			if t.planCacheHits != 0 || t.subResultHits != 0 {
				return "a cache served an op of the cold workload"
			}
			return ""
		},
	},
	{
		name:    "closure-plw",
		why:     "full closure under Ps_plw then Ppg_plw with the plan cached: no optimiser, no shuffle, so core, localdb and row rendering do nearly all the work",
		clients: 1, replay: true,
		options: func(scale, string) distmura.Options {
			return distmura.Options{Workers: 4, DisableSubResultCache: true}
		},
		graph: closureGraph,
		op:    closureOp(distmura.PlanSplw, distmura.PlanPgplw),
		exercised: func(t totals) string {
			if t.shuffleRecords != 0 {
				return "parallel local loops shuffled records"
			}
			return ""
		},
	},
	{
		name:    "closure-gld-tcp",
		why:     "same closure under Pgld over TCP: one shuffle per iteration makes cluster encode, decode, transport and the driver loop dominant",
		clients: 1, replay: true,
		options: func(scale, string) distmura.Options {
			return distmura.Options{Workers: 4, DisableSubResultCache: true, Transport: distmura.TransportTCP}
		},
		graph: closureGraph,
		op:    closureOp(distmura.PlanGld),
		exercised: func(t totals) string {
			if t.shuffleRecords == 0 {
				return "the global loop shuffled nothing"
			}
			return ""
		},
	},
	{
		name:    "closure-spill",
		why:     "same closure with the task memory budget below its peak: spill I/O is all that differs from the Ps_plw half of closure-plw, so their ratio is the spill slowdown",
		clients: 1, replay: true,
		options: func(sc scale, spillDir string) distmura.Options {
			return distmura.Options{Workers: 4, DisableSubResultCache: true, TaskMemBytes: sc.spillBytes, SpillDir: spillDir}
		},
		graph: closureGraph,
		op:    closureOp(distmura.PlanAuto),
		exercised: func(t totals) string {
			if t.spills == 0 {
				return "nothing spilled under the budget"
			}
			return ""
		},
	},
	{
		name:    "serve-overlap",
		why:     "default options, caches warm, 2 closed-loop clients on the yago-cold pool in seeded orders: plan cache, sub-result hits, sessions and rendering; optimiser and fixpoints bypassed",
		clients: 2,
		options: func(scale, string) distmura.Options { return distmura.Options{Workers: 4} },
		graph:   yagoGraph,
		op:      yagoPool,
		exercised: func(t totals) string {
			if t.calls == 0 || t.planCacheHits != t.calls || t.subResultHits == 0 {
				return "the warm path missed a cache"
			}
			return ""
		},
	},
	{
		name:    "live-mutate",
		why:     "8 inserts and 8 deletes, then three cached closure queries and a Watch delta on a giant SCC: refresh, DRed over-delete and rederive, change-log deltas, maintained Watch",
		clients: 1,
		options: func(scale, string) distmura.Options { return distmura.Options{Workers: 4} },
		graph:   mutateGraph,
		exercised: func(t totals) string {
			if t.rederivedRows == 0 || t.retractions == 0 || t.refreshes == 0 {
				return "cached results were not maintained through DRed"
			}
			return ""
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
