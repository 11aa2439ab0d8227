package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	distmura "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graphgen"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// span is one timed interval at a layer boundary. Spans of one op share
// OpID; Parent names the span of the same op that caused this one. Counts
// are taken at the same boundary as the times.
type span struct {
	Workload string             `json:"workload"`
	OpID     int                `json:"op_id"`
	Name     string             `json:"name"`
	Parent   string             `json:"parent"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so the untraced run shares the op code.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

func (t *tracer) add(opID int, name, parent string, start, end time.Time, counts map[string]float64) {
	if t == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	s := span{t.workload, opID, name, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), counts}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f as a span carrying the counts f returns.
func (t *tracer) timed(opID int, name, parent string, f func() map[string]float64) {
	start := time.Now()
	counts := f()
	t.add(opID, name, parent, start, time.Now(), counts)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer re-executes a call stage by stage through the layers' public
// functions, mirroring Engine.optimize and Engine.runOnce on the engine's
// own graph and cluster, so that each stage gets a span the engine itself
// does not emit yet. Stages the engine skipped for the op (the optimiser,
// on a plan-cache hit) are skipped here too: a layer a workload bypasses
// reads 0.
type replayer struct {
	eng   *distmura.Engine
	g     *graphgen.Graph
	plans map[string]core.Term // chosen plan per query text, for ops the engine served from its plan cache
	// qerrors collects max(est/actual, actual/est) of the chosen plan's
	// estimated result cardinality, one per replayed call.
	qerrors []float64
	err     error // first replay failure; fails the traced run
}

func newReplayer(eng *distmura.Engine) *replayer {
	return &replayer{eng: eng, g: eng.Graph(), plans: map[string]core.Term{}}
}

// engineMaxPlans is Options.MaxPlans' default: the per-direction cap the
// engine gives the rewriter.
const engineMaxPlans = 96

func physicalKind(p distmura.Plan) physical.Kind {
	switch p {
	case distmura.PlanGld:
		return physical.Gld
	case distmura.PlanSplw:
		return physical.Splw
	case distmura.PlanPgplw:
		return physical.Pgplw
	}
	return physical.Auto
}

func (rp *replayer) fail(stage string, err error) {
	if rp.err == nil {
		rp.err = fmt.Errorf("replay %s: %w", stage, err)
	}
}

// optimize mirrors Engine.optimize: parse, translate in both directions,
// explore both spaces, select the cheapest. tr may be nil.
func (rp *replayer) optimize(tr *tracer, opID int, text string) core.Term {
	senv := core.SchemaEnv{edgeRel: rp.g.Triples.Cols()}
	var ltr, rtl core.Term
	var err error
	tr.timed(opID, "ucrpq.parse_translate", "replay", func() map[string]float64 {
		var q *ucrpq.UnionQuery
		if q, err = ucrpq.ParseUnion(text); err != nil {
			return nil
		}
		if ltr, err = ucrpq.TranslateUnion(q, edgeRel, rp.g.Dict, rpq.LeftToRight); err != nil {
			return nil
		}
		rtl, err = ucrpq.TranslateUnion(q, edgeRel, rp.g.Dict, rpq.RightToLeft)
		return nil
	})
	if err != nil {
		rp.fail("parse/translate", err)
		return nil
	}
	var plans []core.Term
	tr.timed(opID, "rewrite.explore", "replay", func() map[string]float64 {
		rw := rewrite.NewRewriter(senv)
		rw.MaxPlans = engineMaxPlans
		capHits := 0.0
		plans = rw.Explore(ltr)
		if len(plans) >= engineMaxPlans {
			capHits++
		}
		seen := map[string]bool{}
		for _, p := range plans {
			seen[p.String()] = true
		}
		other := rw.Explore(rtl)
		if len(other) >= engineMaxPlans {
			capHits++
		}
		for _, p := range other {
			if !seen[p.String()] {
				plans = append(plans, p)
				seen[p.String()] = true
			}
		}
		return map[string]float64{"plans_explored": float64(len(plans)), "plan_cap_hits": capHits}
	})
	var best core.Term
	tr.timed(opID, "cost.select", "replay", func() map[string]float64 {
		cat := cost.NewCatalog()
		cat.BindRelation(edgeRel, rp.g.Triples)
		best, _ = cost.SelectBest(plans, cat)
		return nil
	})
	return best
}

// replay re-executes c after the engine ran it with stats st and returned
// rows rows.
func (rp *replayer) replay(ctx context.Context, tr *tracer, opID int, c call, st distmura.QueryStats, rows int) {
	senv := core.SchemaEnv{edgeRel: rp.g.Triples.Cols()}
	var term core.Term
	if st.PlanCacheHit {
		if term = rp.plans[c.text]; term == nil {
			term = rp.optimize(nil, opID, c.text)
			rp.plans[c.text] = term
		}
	} else {
		term = rp.optimize(tr, opID, c.text)
	}
	if term == nil {
		return
	}
	// The engine certifies the plan when it caches it and again before
	// every execution.
	verifies := 2
	if st.PlanCacheHit {
		verifies = 1
	}
	tr.timed(opID, "rewrite.verify", "replay", func() map[string]float64 {
		for i := 0; i < verifies; i++ {
			if err := rewrite.VerifyErr(term, senv); err != nil {
				rp.fail("verify", err)
			}
		}
		return nil
	})

	cat := cost.NewCatalog()
	cat.BindRelation(edgeRel, rp.g.Triples)
	if est, err := cost.NewEstimator(cat).Estimate(term); err == nil {
		e, a := math.Max(est.Rows, 1), math.Max(float64(rows), 1)
		rp.qerrors = append(rp.qerrors, math.Max(e/a, a/e))
	}

	env := core.NewEnv()
	env.Bind(edgeRel, rp.g.Triples)
	execute := func(name string, kind physical.Kind) {
		tr.timed(opID, name, "replay", func() map[string]float64 {
			sess := rp.eng.Cluster().NewSession(ctx)
			defer sess.Close()
			planner := physical.NewSessionPlanner(sess, env)
			planner.Force = kind
			rel, rep, err := planner.Execute(term)
			if err != nil {
				rp.fail(name, err)
				return nil
			}
			if rel.Len() != rows {
				rp.fail(name, fmt.Errorf("%s: %d rows, engine returned %d", c.id, rel.Len(), rows))
			}
			m := sess.Metrics().Snapshot()
			counts := map[string]float64{
				"iterations":      float64(rep.Iterations()),
				"shuffle_phases":  float64(m.ShufflePhases),
				"shuffle_records": float64(m.ShuffleRecords),
				"net_bytes":       float64(m.NetworkBytes()),
			}
			// The driver-side glue evaluator's gauge is not among the
			// session's worker gauges.
			for _, g := range append([]*core.MemGauge{planner.DriverGauge()}, sess.Gauges()...) {
				if g != nil {
					counts["spills"] += float64(g.Spills())
					counts["spilled_bytes"] += float64(g.SpilledBytes())
				}
			}
			for _, f := range rep.Fixpoints {
				switch f.Kind {
				case physical.Gld:
					counts["fixpoints_gld"]++
				case physical.Splw:
					counts["fixpoints_splw"]++
				case physical.Pgplw:
					counts["fixpoints_pgplw"]++
				}
			}
			return counts
		})
	}
	execute("physical.execute", physicalKind(c.plan))

	// Off the engine's path, for comparison: what the graph scatter alone
	// costs, what the plan costs with no cluster at all, and what it
	// costs inside the workers' embedded indexed engine.
	tr.timed(opID, "cluster.scatter", "replay", func() map[string]float64 {
		sess := rp.eng.Cluster().NewSession(ctx)
		defer sess.Close()
		ds, err := sess.Parallelize(rp.g.Triples, nil)
		if err != nil {
			rp.fail("scatter", err)
			return nil
		}
		b, err := sess.BroadcastRel(rp.g.Triples)
		if err == nil {
			err = sess.FreeBroadcast(b)
		}
		if ferr := sess.Free(ds); err == nil {
			err = ferr
		}
		if err != nil {
			rp.fail("scatter", err)
		}
		return map[string]float64{"scatter_bytes": float64(sess.Metrics().Snapshot().NetworkBytes())}
	})
	tr.timed(opID, "core.central_eval", "replay", func() map[string]float64 {
		ev := core.NewEvaluator(env)
		defer ev.Close()
		ev.Ctx = ctx
		if _, err := ev.Eval(term); err != nil {
			rp.fail("central eval", err)
		}
		return nil
	})
	execute("localdb.pg_execute", physical.Pgplw)
}

// exchangeMBPerS times one Ctx.Exchange of a fixed two-column relation
// across 4 workers and returns shuffled MB per second, the median of
// three.
func exchangeMBPerS(kind cluster.TransportKind, rows int) (float64, error) {
	c, err := cluster.New(cluster.Config{Workers: 4, Transport: kind})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(1))
	rel := core.NewRelationSized(rows, core.ColSrc, core.ColTrg)
	for rel.Len() < rows {
		rel.Add([]core.Value{rng.Int63n(1 << 40), rng.Int63n(1 << 40)})
	}
	ds, err := c.Parallelize(rel, nil)
	if err != nil {
		return 0, err
	}
	var rates []float64
	for i := 0; i < 3; i++ {
		sess := c.NewSession(context.Background())
		start := time.Now()
		err := sess.RunPhase(func(ctx *cluster.Ctx) error {
			_, err := ctx.Exchange(ctx.Partition(ds), []string{core.ColTrg})
			return err
		})
		secs := time.Since(start).Seconds()
		bytes := sess.Metrics().Snapshot().ShuffleBytes
		sess.Close()
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(bytes)/1e6/secs)
	}
	sort.Float64s(rates)
	return rates[1], c.Free(ds)
}

// reportTrace folds the spans of a traced run into the per-layer metrics,
// prints them with each span's self time, and writes the spans out.
func reportTrace(cfg runConfig, tr *tracer, rp *replayer, s *sample, caches cacheCounts, out *runOutcome) error {
	if rp != nil && rp.err != nil {
		return rp.err
	}
	ops := float64(len(s.durs))
	type agg struct {
		n        int
		total    time.Duration
		children time.Duration // part of the spans' intervals that their child spans cover
		counts   map[string]float64
	}
	byName := map[string]*agg{}
	get := func(name string) *agg {
		a := byName[name]
		if a == nil {
			a = &agg{counts: map[string]float64{}}
			byName[name] = a
		}
		return a
	}
	type key struct {
		op   int
		name string
	}
	parents := map[key]span{}
	for _, sp := range tr.spans {
		parents[key{sp.OpID, sp.Name}] = sp
	}
	for _, sp := range tr.spans {
		a := get(sp.Name)
		a.n++
		a.total += time.Duration(sp.EndNS - sp.StartNS)
		for k, v := range sp.Counts {
			a.counts[k] += v
		}
		if p, ok := parents[key{sp.OpID, sp.Parent}]; ok {
			lo, hi := max(sp.StartNS, p.StartNS), min(sp.EndNS, p.EndNS)
			if hi > lo {
				get(sp.Parent).children += time.Duration(hi - lo)
			}
		}
	}
	perOpMS := func(name string) float64 { return ms(get(name).total) / ops }
	perOp := func(name, count string) float64 { return get(name).counts[count] / ops }

	v := map[string]float64{
		"ucrpq.parse_translate_ms":   perOpMS("ucrpq.parse_translate"),
		"rewrite.explore_ms":         perOpMS("rewrite.explore"),
		"rewrite.plans_explored":     perOp("rewrite.explore", "plans_explored"),
		"rewrite.plan_cap_hits":      perOp("rewrite.explore", "plan_cap_hits"),
		"rewrite.verify_ms":          perOpMS("rewrite.verify"),
		"cost.select_ms":             perOpMS("cost.select"),
		"cluster.scatter_ms":         perOpMS("cluster.scatter"),
		"cluster.scatter_bytes":      perOp("cluster.scatter", "scatter_bytes"),
		"physical.execute_ms":        perOpMS("physical.execute"),
		"physical.fixpoints_gld":     perOp("physical.execute", "fixpoints_gld"),
		"physical.fixpoints_splw":    perOp("physical.execute", "fixpoints_splw"),
		"physical.fixpoints_pgplw":   perOp("physical.execute", "fixpoints_pgplw"),
		"core.central_eval_ms":       perOpMS("core.central_eval"),
		"localdb.pg_execute_ms":      perOpMS("localdb.pg_execute"),
		"repro.query_call_ms":        perOpMS("repro.query_call"),
		"repro.render_ms":            perOpMS("repro.render"),
		"repro.watch_delivery_ms":    perOpMS("repro.watch_delivery"),
		"repro.refreshes":            float64(s.stats.refreshes) / ops,
		"repro.refresh_rows":         float64(s.stats.refreshRows) / ops,
		"repro.retractions":          float64(s.stats.retractions) / ops,
		"repro.rederived_rows":       float64(s.stats.rederivedRows) / ops,
		"repro.traced_op_ms_p50":     median(s.durs),
		"repro.plan_cache_hit_ratio": ratio(caches.planHits, caches.planMisses),
		"repro.subresult_hit_ratio":  ratio(caches.subHits, caches.subMisses),
	}
	// On replay workloads the cluster and spill counts come from the
	// replayed Execute's own session; elsewhere from the engine's
	// QueryStats. Both are exact per query.
	if ex := get("physical.execute"); ex.n > 0 {
		v["cluster.shuffle_phases"] = ex.counts["shuffle_phases"] / ops
		v["cluster.shuffle_records"] = ex.counts["shuffle_records"] / ops
		v["cluster.net_bytes"] = ex.counts["net_bytes"] / ops
		v["physical.iterations"] = ex.counts["iterations"] / ops
		v["core.spills"] = ex.counts["spills"] / ops
		v["core.spilled_bytes"] = ex.counts["spilled_bytes"] / ops
		if int64(ex.counts["net_bytes"]) != s.stats.netBytes {
			fmt.Printf("%s replica drift: replayed executes moved %.0f B, the engine %d B\n",
				cfg.w.name, ex.counts["net_bytes"], s.stats.netBytes)
		}
	} else {
		v["cluster.shuffle_phases"] = float64(s.stats.shufflePhases) / ops
		v["cluster.shuffle_records"] = float64(s.stats.shuffleRecords) / ops
		v["cluster.net_bytes"] = float64(s.stats.netBytes) / ops
		v["physical.iterations"] = float64(s.stats.iterations) / ops
		v["core.spills"] = float64(s.stats.spills) / ops
		v["core.spilled_bytes"] = float64(s.stats.spilledBytes) / ops
	}
	if s.stats.retractions > 0 {
		v["repro.rederive_ratio"] = float64(s.stats.rederivedRows) / float64(s.stats.retractions)
	}
	if mu := get("graphgen.mutate"); mu.counts["edges"] > 0 {
		v["graphgen.mutate_us_per_edge"] = ms(mu.total) * 1e3 / mu.counts["edges"]
	}
	if rp != nil && len(rp.qerrors) > 0 {
		q := rp.qerrors
		sort.Float64s(q)
		v["cost.card_qerror_p50"] = q[len(q)/2]
	}
	// What the engine's op spent outside every stage the replay mirrors
	// or, without a replay, outside its child spans.
	if get("physical.execute").n > 0 {
		v["repro.unattributed_ms"] = perOpMS("op") - v["ucrpq.parse_translate_ms"] - v["rewrite.explore_ms"] -
			v["cost.select_ms"] - v["rewrite.verify_ms"] - v["physical.execute_ms"] - v["repro.render_ms"]
	} else {
		v["repro.unattributed_ms"] = perOpMS("op") - ms(get("op").children)/ops
	}
	var err error
	if v["cluster.exchange_chan_mb_per_s"], err = exchangeMBPerS(cluster.TransportChan, cfg.sc.exchRows); err != nil {
		return err
	}
	if v["cluster.exchange_tcp_mb_per_s"], err = exchangeMBPerS(cluster.TransportTCP, cfg.sc.exchRows); err != nil {
		return err
	}

	for _, m := range perLayer {
		out.Metrics[m.Name] = mvalue{v[m.Name], m.Unit}
		fmt.Printf("%s %-32s %14.4f %s\n", cfg.w.name, m.Name, v[m.Name], m.Unit)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s spans (n=%.0f ops): name, count, total ms, self ms\n", cfg.w.name, ops)
	for _, name := range names {
		a := byName[name]
		if a.n == 0 {
			continue
		}
		fmt.Printf("%s   %-24s %7d %12.3f %12.3f\n", cfg.w.name, name, a.n, ms(a.total), ms(a.total-a.children))
	}
	path := filepath.Join(cfg.out, cfg.w.name+".spans.jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("%s wrote %d spans to %s\n", cfg.w.name, len(tr.spans), path)
	return nil
}
