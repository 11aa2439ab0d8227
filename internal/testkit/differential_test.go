package testkit

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/physical"
)

// TestDifferentialAllPlans is the bounded differential run wired into
// `go test ./...`: random graphs × random UCRPQ queries, each evaluated by
// the materializing reference, the streaming evaluator and all three
// distributed plans, compared order-insensitively. The combo floor keeps
// the harness honest: at least 200 (graph, query, plan) combinations per
// run.
func TestDifferentialAllPlans(t *testing.T) {
	rep, err := RunDifferential(Options{Seed: 20260730})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Combos < 200 {
		t.Fatalf("differential run checked only %d combos, want >= 200 (graphs=%d queries=%d)",
			rep.Combos, rep.Graphs, rep.Queries)
	}
	if rep.ResultRows == 0 || rep.Iterations == 0 {
		t.Fatalf("degenerate run: %d result rows, %d fixpoint iterations — queries did no work",
			rep.ResultRows, rep.Iterations)
	}
	if rep.VerifierViolations != 0 {
		t.Fatalf("static verifier reported %d violations across the run", rep.VerifierViolations)
	}
	if rep.VerifiedPlans < rep.Queries {
		t.Fatalf("verifier certified only %d plans for %d queries — the certification sweep went missing",
			rep.VerifiedPlans, rep.Queries)
	}
	t.Logf("differential: %d graphs, %d queries, %d plan combos, %d result rows, %d iterations, %d plans verified",
		rep.Graphs, rep.Queries, rep.Combos, rep.ResultRows, rep.Iterations, rep.VerifiedPlans)
}

// TestDifferentialTCPTransport runs one differential case over real
// loopback TCP sockets, so the wire encode/decode path of the shuffle
// (including ShipInto's absorb-at-decode) is exercised in CI.
func TestDifferentialTCPTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomGraph(rng, Cycle, 14, 2)
	if _, err := RunCase(Options{Transport: cluster.TransportTCP, Workers: 3}, g, "?x,?y <- ?x l0+/l1+ ?y UNION ?x,?y <- ?x (l1/-l0)+ ?y"); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialBagRootedShapes sends the root chains a pipeline is
// built without inline distinct for — an anti-projection over an
// anti-projection, a rename over an anti-projection, and an anti-projection
// of reversed hops under an antijoin and under an intersection join (a
// build side that adds no column) as φ branches, a union of overlapping sides as the constant
// part — through every route on both transports. The fixpoint closes over
// all labels at once, so dropping the label column merges rows the join
// column alone keeps apart; src is stable in every branch, so the Pplw
// routes also take the disjoint collect.
func TestDifferentialBagRootedShapes(t *testing.T) {
	x := &core.Var{Name: "X"}
	g := &core.Var{Name: "G"}
	hop := func(edges core.Term) core.Term { // (@m, pred, src, trg)
		return &core.Join{
			L: &core.Rename{From: core.ColTrg, To: "@m", T: x},
			R: &core.Rename{From: core.ColSrc, To: "@m", T: edges},
		}
	}
	// rev is G with its edges reversed: hops along it reach rows the
	// forward branches do not derive.
	rev := &core.Rename{From: "v", To: core.ColTrg, T: &core.Rename{From: core.ColTrg, To: core.ColSrc,
		T: &core.Rename{From: core.ColSrc, To: "v", T: g}}}
	label := func(v core.Value) core.Term {
		return core.NewAntiProject(&core.Filter{Cond: core.EqConst{Col: core.ColPred, Val: v}, T: g}, core.ColPred)
	}
	for seed, kind := range []GraphKind{Cycle, Random, Clustered} {
		graph := RandomGraph(rand.New(rand.NewSource(int64(40+seed))), kind, 16, 3)
		l0, _ := graph.G.Dict.Lookup(graph.Labels[0])
		l1, _ := graph.G.Dict.Lookup(graph.Labels[1])
		l2, _ := graph.G.Dict.Lookup(graph.Labels[2])
		term := &core.Fixpoint{X: "X", Body: core.UnionOf([]core.Term{
			label(l0), label(l1),
			core.NewAntiProject(core.NewAntiProject(hop(g), "@m"), core.ColPred),
			&core.Rename{From: "u", To: core.ColTrg,
				T: core.NewAntiProject(hop(&core.Rename{From: core.ColTrg, To: "u", T: g}), "@m", core.ColPred)},
			&core.Antijoin{L: core.NewAntiProject(hop(rev), "@m", core.ColPred), R: label(l1)},
			&core.Join{L: core.NewAntiProject(hop(rev), "@m", core.ColPred), R: label(l2)},
		})}
		for _, tr := range []cluster.TransportKind{cluster.TransportChan, cluster.TransportTCP} {
			if err := RunTermCase(tr, 3, graph, term); err != nil {
				t.Fatalf("%s, transport %d: %v", graph.Desc(), tr, err)
			}
		}
	}
}

// TestDifferentialStarvedBudget re-runs a differential slice with a
// deliberately starved per-task budget, over in-process channels and over
// loopback TCP: every budgeted route (streaming evaluator, Pgld, Ps_plw,
// Ppg_plw) must degrade to disk and still agree row-for-row with the
// unbudgeted materializing reference. The fuzzed slice covers operator
// shapes, on graphs so small that only some routes outgrow even 1 KiB (the
// Spills guard keeps it honest in total). The closure after it is large
// enough that every route's shards are frozen again and again, so compacted
// runs are probed (one read per filter hit) and re-merged; there the guard
// is per route — a route that froze nothing, or never read a frozen run
// back, was not exercising the governance layer. Every route must also
// leave every gauge at zero and no spill run mapped (runRoutes), and a
// conjunction over the closure must charge the driver gauge at all.
func TestDifferentialStarvedBudget(t *testing.T) {
	for _, tr := range []struct {
		name string
		kind cluster.TransportKind
	}{{"chan", cluster.TransportChan}, {"tcp", cluster.TransportTCP}} {
		rep, err := RunDifferential(Options{
			Seed:            424242,
			Graphs:          3,
			QueriesPerGraph: 4,
			Workers:         3,
			Transport:       tr.kind,
			TaskMemBytes:    1 << 10, // 1 KiB: almost everything is over budget
			SpillDir:        t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		if rep.Combos == 0 || rep.ResultRows == 0 {
			t.Fatalf("%s: degenerate starved run: %+v", tr.name, rep)
		}
		if rep.Spills == 0 {
			t.Fatalf("%s: starved run recorded no spill events: %+v", tr.name, rep)
		}
		t.Logf("%s starved differential: %d combos, %d rows, %d spills, by route %v",
			tr.name, rep.Combos, rep.ResultRows, rep.Spills, rep.RouteSpills)

		g := RandomGraph(rand.New(rand.NewSource(99)), Random, 64, 1)
		opts := Options{
			Workers:      3,
			Transport:    tr.kind,
			TaskMemBytes: 4 << 10,
			SpillDir:     t.TempDir(),
		}
		opts.fill()
		c, err := newCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		rep = Report{}
		_, err = runCase(c, g, "?x,?y <- ?x l0+ ?y", opts, &rep)
		if err != nil {
			c.Close()
			t.Fatalf("%s: closure on %s: %v", tr.name, g.Desc(), err)
		}
		// The leak checks in runRoutes read the driver gauge back at zero;
		// that proves something only if the driver evaluator charged it,
		// which the join of two fixpoint results on the driver does.
		_, err = runCase(c, g, "?x,?y <- ?x l0+ ?z, ?z l0+ ?y", opts, &Report{})
		driverPeak := c.DriverGauge().Peak()
		c.Close()
		if err != nil {
			t.Fatalf("%s: conjunction on %s: %v", tr.name, g.Desc(), err)
		}
		if driverPeak == 0 {
			t.Fatalf("%s: the driver gauge was never charged", tr.name)
		}
		for _, route := range []string{"streaming", "Pgld", "Ps_plw", "Ppg_plw"} {
			if rs := rep.RouteSpills[route]; rs.Spills == 0 || rs.Reads == 0 {
				t.Fatalf("%s closure: route %s recorded %d spill events and %d spill reads: %+v",
					tr.name, route, rs.Spills, rs.Reads, rep)
			}
		}
		t.Logf("%s starved closure: %d rows, %d spills, by route %v", tr.name, rep.ResultRows, rep.Spills, rep.RouteSpills)
	}
}

// TestDifferentialFaultRoute re-runs a differential slice with the fault
// route enabled: every fuzzed query is additionally evaluated through the
// engine's retry layer while a randomly chosen worker is killed at a
// randomly chosen phase, and must still agree row-for-row with the
// reference. The FaultRetries guard keeps the run honest — if no query
// ever retried, the kills all landed after completion and the recovery
// path went unexercised.
func TestDifferentialFaultRoute(t *testing.T) {
	rep, err := RunDifferential(Options{
		Seed:            20260808,
		Graphs:          4,
		QueriesPerGraph: 5,
		InjectFaults:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultRoutes != rep.Queries {
		t.Fatalf("fault route checked %d of %d queries", rep.FaultRoutes, rep.Queries)
	}
	if rep.FaultRetries == 0 {
		t.Fatalf("no fault-route query ever retried — injected kills never landed: %+v", rep)
	}
	if rep.VerifierViolations != 0 {
		t.Fatalf("static verifier reported %d violations on the fault run", rep.VerifierViolations)
	}
	t.Logf("fault differential: %d routes, %d retried", rep.FaultRoutes, rep.FaultRetries)
}

// TestDifferentialSeeds varies the generator seed in short bursts so CI
// explores a different neighborhood than the fixed big run; kept small
// because TestDifferentialAllPlans carries the volume.
func TestDifferentialSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rep, err := RunDifferential(Options{Seed: seed, Graphs: 2, QueriesPerGraph: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Combos == 0 {
			t.Fatalf("seed %d: no combos checked", seed)
		}
	}
}

// TestDifferentialPgldRecycledFrames runs Pgld over loopback TCP while one
// shuffle frame is sent twice and the next is delayed, at several points
// of the run, and checks each run against the reference. Received frames
// decode into pooled buffers that are recycled once absorbed; a consumer
// still reading a released buffer would see another frame's rows (and,
// under -race, a data race).
func TestDifferentialPgldRecycledFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	edges := core.NewRelation(core.ColSrc, core.ColTrg)
	for edges.Len() < 700 {
		edges.Add([]core.Value{core.Value(rng.Intn(300)), core.Value(rng.Intn(300))})
	}
	env := core.NewEnv()
	env.Bind("E", edges)
	term := core.ClosureLR("X", &core.Var{Name: "E"})
	want, err := core.Eval(term, env)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Workers: 3, Transport: cluster.TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.NewSession(nil)
	defer s.Close()
	p := physical.NewSessionPlanner(s, env)
	p.Force = physical.Gld
	// A clean run counts the frames the faults below aim at.
	count := cluster.NewFaultPlan()
	c.InjectFaults(count)
	if _, _, err := p.Execute(term); err != nil {
		t.Fatal(err)
	}
	frames := count.Frames()
	for _, at := range []int64{frames / 5, frames / 2, frames * 4 / 5} {
		plan := cluster.NewFaultPlan()
		plan.DuplicateFrameAt = at
		plan.DelayFrameAt = at + 1
		plan.Delay = 2 * time.Millisecond
		c.InjectFaults(plan)
		got, _, err := p.Execute(term)
		if err != nil {
			t.Fatalf("frame %d of %d duplicated: %v", at, frames, err)
		}
		if !core.SameRows(got, want) {
			t.Fatalf("frame %d of %d duplicated: Pgld has %d rows, the reference %d", at, frames, got.Len(), want.Len())
		}
	}
	c.InjectFaults(nil)
	if want.Len() < 10*core.BatchRowsFor(2) {
		t.Fatalf("closure of %d rows is too small for multi-frame shuffles", want.Len())
	}
}
