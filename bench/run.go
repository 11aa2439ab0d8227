package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	distmura "repro"
)

// setupReps is how many times a run sets the workload up unless told
// otherwise; setup_s is the median, and the last set-up is the one
// measured.
const setupReps = 3

// totals sums the QueryStats of every call of a run.
type totals struct {
	calls          int64
	netBytes       int64
	shufflePhases  int64
	shuffleRecords int64
	iterations     int64
	spills         int64
	spilledBytes   int64
	planCacheHits  int64
	subResultHits  int64
	refreshes      int64
	refreshRows    int64
	retractions    int64
	rederivedRows  int64
}

func (t *totals) add(st distmura.QueryStats) {
	t.calls++
	t.netBytes += st.NetworkBytes
	t.shufflePhases += st.ShufflePhases
	t.shuffleRecords += st.ShuffleRecords
	t.iterations += int64(st.Iterations)
	t.spills += st.Spills
	t.spilledBytes += st.SpilledBytes
	if st.PlanCacheHit {
		t.planCacheHits++
	}
	t.subResultHits += st.SubResultHits
	t.refreshes += st.Refreshes
	t.refreshRows += st.RefreshRows
	t.retractions += st.Retractions
	t.rederivedRows += st.RederivedRows
}

// opResult is what one op observed.
type opResult struct {
	dur    time.Duration            // the timed span
	calls  map[string]time.Duration // per call label, for ops of several calls
	failed string                   // non-empty: the error or mismatch that failed the op
	stats  []distmura.QueryStats    // one per call
	// Watch deliveries received, and how many of them incremental
	// maintenance produced (the rest came from re-evaluate-and-diff).
	watchDeliveries, watchMaintained int
	// pause and pauseAlloc are the wall time and allocation of checks the
	// op ran outside its timed span; the run subtracts them.
	pause      time.Duration
	pauseAlloc uint64
}

// runner executes the ops of one set-up workload.
type runner interface {
	// runOp executes one op. tr is nil with tracing off; rng is the
	// calling client's own sequence, nil when there is one client.
	runOp(ctx context.Context, tr *tracer, opID int, rng *rand.Rand) opResult
	// engine is the engine under test.
	engine() *distmura.Engine
	close()
}

// queryCall issues one call and drains it, folding the rendered rows into
// the order-independent hash on the way. It is the timed region of every
// query op, traced or not; the two timestamps it takes anyway become the
// query_call and render spans of a traced run.
func queryCall(ctx context.Context, eng *distmura.Engine, c call, tr *tracer, opID int) (result, distmura.QueryStats, time.Duration, error) {
	t0 := time.Now()
	var rows *distmura.Rows
	var err error
	if c.plan == distmura.PlanAuto {
		rows, err = eng.Query(ctx, c.text)
	} else {
		rows, err = eng.Query(ctx, c.text, distmura.WithPlan(c.plan))
	}
	if err != nil {
		return result{}, distmura.QueryStats{}, time.Since(t0), err
	}
	t1 := time.Now()
	n, sum := 0, uint64(0)
	for rows.Next() {
		sum += rowHash(rows.Strings())
		n++
	}
	err = rows.Close()
	t2 := time.Now()
	tr.add(opID, "repro.query_call", "op", t0, t1, nil)
	tr.add(opID, "repro.render", "op", t1, t2, nil)
	return makeResult(n, sum), rows.Stats(), t2.Sub(t0), err
}

// label names a call in the diagnostics: the forced plan where an op
// repeats one query under several, the query id otherwise.
func (c call) label() string {
	if c.plan != distmura.PlanAuto {
		return c.plan.String()
	}
	return c.id
}

// queryRunner runs the workloads whose op is a list of calls.
type queryRunner struct {
	eng  *distmura.Engine
	op   []call
	want map[string]result
	rp   *replayer // non-nil in a traced run of a replay workload
}

func (r *queryRunner) engine() *distmura.Engine { return r.eng }

func (r *queryRunner) close() {
	if err := r.eng.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: closing engine:", err)
	}
}

func (r *queryRunner) runOp(ctx context.Context, tr *tracer, opID int, rng *rand.Rand) opResult {
	res := opResult{calls: make(map[string]time.Duration, len(r.op))}
	op := r.op
	if rng != nil {
		op = append([]call(nil), r.op...)
		rng.Shuffle(len(op), func(i, j int) { op[i], op[j] = op[j], op[i] })
	}
	res.stats = make([]distmura.QueryStats, len(op))
	rows := make([]int, len(op))
	start := time.Now()
	for k, c := range op {
		got, st, d, err := queryCall(ctx, r.eng, c, tr, opID)
		res.calls[c.label()] = d
		switch {
		case err != nil:
			res.failed = fmt.Sprintf("%s: %v", c.id, err)
		case r.want != nil && got != r.want[c.id]:
			res.failed = fmt.Sprintf("%s: got %+v, want %+v", c.id, got, r.want[c.id])
		}
		res.stats[k], rows[k] = st, got.Rows
	}
	end := time.Now()
	res.dur = end.Sub(start)
	tr.add(opID, "op", "", start, end, nil)
	if r.rp != nil && res.failed == "" {
		for k, c := range op {
			r.rp.replay(ctx, tr, opID, c, res.stats[k], rows[k])
		}
	}
	return res
}

// setupQueries generates the graph, opens the engine and runs one untimed
// op so that caches fill and lazy set-up finishes before timing.
func setupQueries(ctx context.Context, w *workload, sc scale, seed int64, spillDir string) (*queryRunner, error) {
	eng, err := distmura.Open(w.options(sc, spillDir))
	if err != nil {
		return nil, err
	}
	eng.UseGraph(w.graph(sc, seed))
	r := &queryRunner{eng: eng, op: w.op}
	if res := r.runOp(ctx, nil, 0, nil); res.failed != "" {
		r.close()
		return nil, fmt.Errorf("warm-up: %s", res.failed)
	}
	return r, nil
}

// sample is everything one measured run collected.
type sample struct {
	durs    []time.Duration
	calls   map[string][]time.Duration // per call label
	wall    time.Duration              // measured wall time, pauses excluded
	alloc   uint64                     // bytes allocated in the window, pauses excluded
	failed  int
	firstEr string
	stats   totals
	// see opResult
	watchDeliveries, watchMaintained int
}

// measure runs ops on every client until d has passed; an op that has
// started always finishes, so per-op counters do not depend on how many
// ops fitted.
func measure(ctx context.Context, r runner, clients int, seed int64, d time.Duration, tr *tracer) *sample {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	results := make([][]opResult, clients)
	walls := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var rng *rand.Rand
			if clients > 1 {
				rng = clientRNG(seed, c)
			}
			var pause time.Duration
			for n := 0; ctx.Err() == nil && time.Since(start)-pause < d; n++ {
				res := r.runOp(ctx, tr, n*clients+c, rng)
				results[c] = append(results[c], res)
				pause += res.pause
			}
			walls[c] = time.Since(start) - pause
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms)
	s := &sample{alloc: ms.TotalAlloc - alloc0, calls: map[string][]time.Duration{}}
	for c, client := range results {
		s.wall = max(s.wall, walls[c])
		for _, res := range client {
			s.durs = append(s.durs, res.dur)
			for label, d := range res.calls {
				s.calls[label] = append(s.calls[label], d)
			}
			if res.failed != "" {
				s.failed++
				if s.firstEr == "" {
					s.firstEr = res.failed
				}
			}
			for _, st := range res.stats {
				s.stats.add(st)
			}
			s.alloc -= res.pauseAlloc
			s.watchDeliveries += res.watchDeliveries
			s.watchMaintained += res.watchMaintained
		}
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the p-th percentile (nearest rank) of durs in ms.
func percentile(durs []time.Duration, p float64) float64 {
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(float64(len(s))*p/100+0.999999) - 1
	if k < 0 {
		k = 0
	}
	return ms(s[k])
}

func median(durs []time.Duration) float64 {
	xs := make([]float64, len(durs))
	for i, d := range durs {
		xs[i] = ms(d)
	}
	med, _ := medianIQR(xs)
	return med
}

// topPercentile is the highest of p99, p95, p90 that has at least ten
// samples beyond it, or 0 when the sample supports none.
func topPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// cacheCounts are the engine-wide cache counters a traced run reads
// before and after the measured window.
type cacheCounts struct{ planHits, planMisses, subHits, subMisses int64 }

func cacheCountsOf(eng *distmura.Engine) cacheCounts {
	p, s := eng.PlanCacheStats(), eng.SubResultCacheStats()
	return cacheCounts{p.Hits, p.Misses, s.Hits, s.Misses}
}

func (c cacheCounts) minus(o cacheCounts) cacheCounts {
	return cacheCounts{c.planHits - o.planHits, c.planMisses - o.planMisses, c.subHits - o.subHits, c.subMisses - o.subMisses}
}

// ratio is hits / (hits + misses), 0 when the cache saw no lookup.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// runConfig is one invocation of a single workload.
type runConfig struct {
	w       *workload
	sc      scale
	seed    int64
	seconds float64
	trace   bool
	out     string
	setups  int // 0 means setupReps
}

// runOutcome is what a single-workload run reports.
type runOutcome struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]mvalue  `json:"metrics"`
	diag      map[string]float64 // printed on the #diag line, not in the result object
}

type mvalue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setup dispatches to the workload's set-up.
func setup(ctx context.Context, cfg runConfig, want map[string]result, spillDir string) (runner, error) {
	if cfg.w.op == nil {
		return setupMutate(ctx, cfg.w, cfg.sc, cfg.seed)
	}
	r, err := setupQueries(ctx, cfg.w, cfg.sc, cfg.seed, spillDir)
	if err != nil {
		return nil, err
	}
	r.want = want
	return r, nil
}

// runWorkload sets cfg.w up, measures it and checks every op.
func runWorkload(ctx context.Context, cfg runConfig) (*runOutcome, error) {
	w := cfg.w
	fp, want, oracleS, err := expectedFor(w, cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s seed=%d scale=%s inputs: edges=%d triples=%s ops=%s oracle_s=%.3f\n",
		w.name, cfg.seed, cfg.sc.name, fp.Edges, fp.Triples, fp.Ops, oracleS)

	spillDir := filepath.Join(cfg.out, "spill-"+w.name)
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)

	var r runner
	if cfg.setups == 0 {
		cfg.setups = setupReps
	}
	setups := make([]time.Duration, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		if r, err = setup(ctx, cfg, want, spillDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	defer r.close()

	var tr *tracer
	var rp *replayer
	if cfg.trace {
		tr = newTracer(w.name)
		if qr, ok := r.(*queryRunner); ok && w.replay {
			rp = newReplayer(qr.eng)
			qr.rp = rp
		}
	}
	caches := cacheCountsOf(r.engine())
	s := measure(ctx, r, w.clients, cfg.seed, time.Duration(cfg.seconds*float64(time.Second)), tr)
	caches = cacheCountsOf(r.engine()).minus(caches)
	if len(s.durs) == 0 {
		return nil, fmt.Errorf("no op completed")
	}

	out := &runOutcome{Attempted: len(s.durs), Failed: s.failed, Metrics: map[string]mvalue{}, diag: map[string]float64{}}
	problem := s.firstEr
	if problem == "" {
		problem = w.exercised(s.stats)
	}
	out.Correct = problem == ""
	if problem != "" {
		fmt.Printf("%s WRONG: %s (%d of %d ops failed)\n", w.name, problem, s.failed, len(s.durs))
	}

	ops := float64(len(s.durs))
	if cfg.trace {
		if err := reportTrace(cfg, tr, rp, s, caches, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	values := map[string]float64{
		"op_ms_p50":       median(s.durs),
		"ops_per_s":       ops / s.wall.Seconds(),
		"alloc_mb_per_op": float64(s.alloc) / 1e6 / ops,
		"setup_s":         median(setups) / 1e3,
	}
	for _, m := range endToEnd {
		out.Metrics[m.Name] = mvalue{values[m.Name], m.Unit}
		fmt.Printf("%s %-18s %12.4f %-4s (n=%d)\n", w.name, m.Name, values[m.Name], m.Unit, len(s.durs))
	}
	out.diag["net_bytes_per_op"] = float64(s.stats.netBytes) / ops
	out.diag["spills_per_op"] = float64(s.stats.spills) / ops
	out.diag["samples"] = ops
	out.diag["oracle_s"] = oracleS
	out.diag["peak_rss_mb"] = peakRSSMB()
	if p := topPercentile(len(s.durs)); p > 0 {
		out.diag[fmt.Sprintf("op_ms_p%.0f", p)] = percentile(s.durs, p)
	}
	if s.watchDeliveries > 0 {
		out.diag["watch_maintained_share"] = float64(s.watchMaintained) / float64(s.watchDeliveries)
	}
	// Ops of a few calls get a median per call; ops of many, the
	// distribution over all their single queries.
	if len(s.calls) > 4 {
		var all []time.Duration
		for _, d := range s.calls {
			all = append(all, d...)
		}
		out.diag["queries_per_s"] = float64(len(all)) / s.wall.Seconds()
		out.diag["query_ms_p50"] = median(all)
		if p := topPercentile(len(all)); p > 0 {
			out.diag[fmt.Sprintf("query_ms_p%.0f", p)] = percentile(all, p)
		}
	} else if len(s.calls) > 1 {
		for label, d := range s.calls {
			out.diag["op_ms_p50."+label] = median(d)
		}
	}
	printDiag(w.name, out.diag)
	return out, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
