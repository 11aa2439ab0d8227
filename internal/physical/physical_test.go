package physical

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

func newTestCluster(t *testing.T, kind cluster.TransportKind, workers int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Workers: workers, Transport: kind})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		checkBroadcasts(t, c)
		c.Close()
	})
	return c
}

// checkBroadcasts asserts what a planner leaves on the workers once its
// Executes have returned: no per-fixpoint or superseded copy, and at most
// one resident copy per bound name per worker, sent under the current
// epoch.
func checkBroadcasts(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	seen := map[[2]any]bool{}
	for _, bc := range c.BroadcastCopies() {
		key := [2]any{bc.Worker, bc.Name}
		if bc.Name == "" || bc.Retired || bc.Epoch != c.Epoch() || seen[key] {
			t.Errorf("worker %d holds broadcast %d (name %q, epoch %d of %d, retired %v, duplicate %v)",
				bc.Worker, bc.ID, bc.Name, bc.Epoch, c.Epoch(), bc.Retired, seen[key])
		}
		seen[key] = true
	}
}

func randomBinary(rng *rand.Rand, n, domain int) *core.Relation {
	r := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < n; i++ {
		r.Add([]core.Value{core.Value(rng.Intn(domain)), core.Value(rng.Intn(domain))})
	}
	return r
}

func reachTerm() *core.Fixpoint {
	return &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
}

func TestAllPlansMatchCentralizedEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newTestCluster(t, cluster.TransportChan, 4)
	for trial := 0; trial < 10; trial++ {
		env := core.NewEnv()
		env.Bind("E", randomBinary(rng, 50, 14))
		env.Bind("S", randomBinary(rng, 10, 14))
		terms := []core.Term{
			reachTerm(),
			core.ClosureRL("X", &core.Var{Name: "E"}),
			&core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 3}, T: reachTerm()},
			core.Compose(reachTerm(), &core.Var{Name: "E"}),
		}
		for _, term := range terms {
			want, err := core.Eval(term, env)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []Kind{Gld, Splw, Pgplw} {
				p := NewPlanner(c, env)
				p.Force = kind
				got, rep, err := p.Execute(term)
				if err != nil {
					t.Fatalf("trial %d %s on %s: %v", trial, kind, term, err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d %s on %s:\n got %v\nwant %v", trial, kind, term, got, want)
				}
				if len(rep.Fixpoints) == 0 {
					t.Fatalf("no fixpoint report for %s", term)
				}
			}
		}
	}
}

func TestMergedFixpointOnAllPlans(t *testing.T) {
	// The merged a+∘b+ fixpoint has no stable column: Pplw must fall back
	// to round-robin split + final distinct and stay correct, paying
	// exactly the one distinct shuffle for it.
	rng := rand.New(rand.NewSource(43))
	c := newTestCluster(t, cluster.TransportChan, 4)
	env := core.NewEnv()
	env.Bind("A", randomBinary(rng, 30, 10))
	env.Bind("B", randomBinary(rng, 30, 10))
	zv := &core.Var{Name: "Z"}
	merged := &core.Fixpoint{X: "Z", Body: core.UnionOf([]core.Term{
		core.Compose(&core.Var{Name: "A"}, &core.Var{Name: "B"}),
		core.Compose(&core.Var{Name: "A"}, zv),
		core.Compose(zv, &core.Var{Name: "B"}),
	})}
	want, err := core.Eval(merged, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{Gld, Splw, Pgplw} {
		p := NewPlanner(c, env)
		p.Force = kind
		c.Metrics().Reset()
		got, rep, err := p.Execute(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: got %d rows, want %d", kind, got.Len(), want.Len())
		}
		if kind == Gld {
			continue
		}
		if rep.Fixpoints[0].Partitioned {
			t.Fatalf("%s: merged fixpoint reported stable partitioning", kind)
		}
		if ph := c.Metrics().Snapshot().ShufflePhases; ph != 1 {
			t.Fatalf("%s: unpartitioned run used %d shuffle phases, want 1", kind, ph)
		}
	}
}

func TestNestedFixpointMaterialization(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c := newTestCluster(t, cluster.TransportChan, 3)
	env := core.NewEnv()
	env.Bind("E", randomBinary(rng, 30, 9))
	env.Bind("S", randomBinary(rng, 6, 9))
	inner := core.ClosureLR("Y", &core.Var{Name: "E"})
	outer := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, inner),
	}}
	want, err := core.Eval(outer, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{Gld, Splw, Pgplw} {
		p := NewPlanner(c, env)
		p.Force = kind
		got, rep, err := p.Execute(outer)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: wrong result", kind)
		}
		if len(rep.Fixpoints) != 2 {
			t.Fatalf("%s: expected 2 fixpoint reports (inner materialized + outer), got %d",
				kind, len(rep.Fixpoints))
		}
	}
}

func TestPlwShufflesOnlyWhenUnstable(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	c := newTestCluster(t, cluster.TransportChan, 4)
	env := core.NewEnv()
	env.Bind("E", randomBinary(rng, 60, 15))
	env.Bind("S", randomBinary(rng, 12, 15))

	// Stable case: µ(X = S ∪ X∘E) has stable src; the loop and the final
	// union need zero shuffle barriers.
	c.Metrics().Reset()
	p := NewPlanner(c, env)
	p.Force = Splw
	_, rep, err := p.Execute(reachTerm())
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics().Snapshot()
	if !rep.Fixpoints[0].Partitioned {
		t.Fatal("stable fixpoint not partition-split")
	}
	if m.ShufflePhases != 0 || m.ShuffleRecords != 0 {
		t.Fatalf("Ps_plw with stable column shuffled: phases=%d records=%d",
			m.ShufflePhases, m.ShuffleRecords)
	}

	// Unstable case (merged fixpoint): exactly one distinct shuffle.
	zv := &core.Var{Name: "Z"}
	merged := &core.Fixpoint{X: "Z", Body: core.UnionOf([]core.Term{
		core.Compose(&core.Var{Name: "E"}, &core.Var{Name: "E"}),
		core.Compose(&core.Var{Name: "E"}, zv),
		core.Compose(zv, &core.Var{Name: "E"}),
	})}
	c.Metrics().Reset()
	if _, _, err := p.Execute(merged); err != nil {
		t.Fatal(err)
	}
	m = c.Metrics().Snapshot()
	if m.ShufflePhases != 1 {
		t.Fatalf("Ps_plw without stable column: %d shuffle phases, want 1", m.ShufflePhases)
	}
}

func TestGldShufflesEveryIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	c := newTestCluster(t, cluster.TransportChan, 4)
	env := core.NewEnv()
	env.Bind("E", randomBinary(rng, 60, 15))
	env.Bind("S", randomBinary(rng, 12, 15))
	c.Metrics().Reset()
	p := NewPlanner(c, env)
	p.Force = Gld
	_, rep, err := p.Execute(reachTerm())
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics().Snapshot()
	if int(m.ShufflePhases) != rep.Fixpoints[0].Iterations {
		t.Fatalf("Pgld: %d shuffle phases for %d iterations (want one per iteration)",
			m.ShufflePhases, rep.Fixpoints[0].Iterations)
	}
	if rep.Fixpoints[0].Iterations < 2 {
		t.Fatalf("degenerate recursion: %d iterations", rep.Fixpoints[0].Iterations)
	}
}

// TestAutoRunsSplwOnLargeConstPart pins that Auto never picks the
// dominated Ppg_plw: a φ constant part larger than any row budget still
// runs Ps_plw, since spill, not a plan switch, handles data beyond memory.
func TestAutoRunsSplwOnLargeConstPart(t *testing.T) {
	e := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i <= 1<<20; i++ {
		e.Add([]core.Value{core.Value(10 + i), core.Value(i)})
	}
	s := core.NewRelation(core.ColSrc, core.ColTrg)
	s.Add([]core.Value{0, 1}) // joins nothing in E
	env := core.NewEnv()
	env.Bind("E", e)
	env.Bind("S", s)
	c := newTestCluster(t, cluster.TransportChan, 2)
	_, rep, err := NewPlanner(c, env).Execute(reachTerm())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Fixpoints[0].Kind; got != Splw {
		t.Fatalf("auto chose %s for a %d-row constant part, want Ps_plw", got, e.Len())
	}
}

func TestUCRPQOverTCPCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	c := newTestCluster(t, cluster.TransportTCP, 3)
	dict := core.NewDict()
	la, lb := dict.Intern("a"), dict.Intern("b")
	g := core.NewRelation(core.ColSrc, core.ColPred, core.ColTrg)
	for i := 0; i < 80; i++ {
		l := la
		if rng.Intn(3) == 0 {
			l = lb
		}
		g.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
			[]core.Value{core.Value(rng.Intn(25)), l, core.Value(rng.Intn(25))})
	}
	env := core.NewEnv()
	env.Bind("G", g)
	q := ucrpq.MustParse("?x,?y <- ?x a+/b ?y")
	term, err := ucrpq.Translate(q, "G", dict, rpq.LeftToRight)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Eval(term, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{Gld, Splw, Pgplw} {
		p := NewPlanner(c, env)
		p.Force = kind
		got, _, err := p.Execute(term)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s over TCP: wrong result", kind)
		}
	}
}

func TestAnbnOnAllPlans(t *testing.T) {
	// Non-regular C7 query a^n b^n as a µ-RA term:
	// µ(X = a∘b ∪ a∘X∘b).
	rng := rand.New(rand.NewSource(49))
	c := newTestCluster(t, cluster.TransportChan, 4)
	env := core.NewEnv()
	env.Bind("A", randomBinary(rng, 25, 8))
	env.Bind("B", randomBinary(rng, 25, 8))
	xv := &core.Var{Name: "X"}
	anbn := &core.Fixpoint{X: "X", Body: &core.Union{
		L: core.Compose(&core.Var{Name: "A"}, &core.Var{Name: "B"}),
		R: core.Compose(&core.Var{Name: "A"}, core.Compose(xv, &core.Var{Name: "B"})),
	}}
	want, err := core.Eval(anbn, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{Gld, Splw, Pgplw} {
		p := NewPlanner(c, env)
		p.Force = kind
		got, _, err := p.Execute(anbn)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: anbn wrong: got %d want %d rows", kind, got.Len(), want.Len())
		}
	}
}

func TestPropertyPlansAgreeOnRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	c := newTestCluster(t, cluster.TransportChan, 3)
	queries := []string{
		"?x,?y <- ?x a+ ?y",
		"?x <- ?x a+ KC",
		"?x,?y <- ?x a+/b+ ?y",
		"?x,?y <- ?x (a|b)+ ?y",
		"?y <- ?x b/a+ ?y",
	}
	dict := core.NewDict()
	la, lb := dict.Intern("a"), dict.Intern("b")
	kc := dict.Intern("KC")
	for trial, qs := range queries {
		g := core.NewRelation(core.ColSrc, core.ColPred, core.ColTrg)
		for i := 0; i < 60; i++ {
			l := la
			if rng.Intn(2) == 0 {
				l = lb
			}
			g.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
				[]core.Value{core.Value(rng.Intn(20) + 100), l, core.Value(rng.Intn(20) + 100)})
		}
		g.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
			[]core.Value{101, la, kc})
		env := core.NewEnv()
		env.Bind("G", g)
		for _, dir := range []rpq.Direction{rpq.LeftToRight, rpq.RightToLeft} {
			term, err := ucrpq.Translate(ucrpq.MustParse(qs), "G", dict, dir)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Eval(term, env)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []Kind{Gld, Splw, Pgplw} {
				p := NewPlanner(c, env)
				p.Force = kind
				got, _, err := p.Execute(term)
				if err != nil {
					t.Fatalf("trial %d %s %s: %v", trial, qs, kind, err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d %s %s (%v): mismatch", trial, qs, kind, dir)
				}
			}
		}
	}
}

// TestPgldShuffleRecordsBound states Pgld's traffic as an asserted bound,
// in the style of Fan/Wang/Wu's bounds for distributed reachability: each
// worker hands a candidate to the shuffle at most once (its loop's shuffle
// filter), every candidate is a row of the fixpoint X, and a row's owner
// never ships it to itself, so ShuffleRecords ≤ (workers−1)·|X| however
// often cycles and diamonds re-derive a tuple. One shuffle per iteration.
func TestPgldShuffleRecordsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	// A dense small-domain graph guarantees many re-derivations (cycles and
	// diamonds) during transitive closure.
	edges := randomBinary(rng, 400, 24)
	seeds := randomBinary(rng, 40, 24)
	env := core.NewEnv()
	env.Bind("E", edges)
	env.Bind("S", seeds)
	want, err := core.Eval(reachTerm(), env)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	for name, kind := range map[string]cluster.TransportKind{"chan": cluster.TransportChan, "tcp": cluster.TransportTCP} {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, kind, workers)
			p := NewPlanner(c, env)
			p.Force = Gld
			got, rep, err := p.Execute(reachTerm())
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("Pgld fixpoint has %d rows, want %d", got.Len(), want.Len())
			}
			m := c.Metrics().Snapshot()
			if bound := int64((workers - 1) * want.Len()); m.ShuffleRecords > bound {
				t.Fatalf("shuffled %d records, bound (workers−1)·|X| = %d", m.ShuffleRecords, bound)
			}
			if iters := rep.Iterations(); m.ShufflePhases != int64(iters) {
				t.Fatalf("%d shuffle phases for %d iterations, want one per iteration", m.ShufflePhases, iters)
			}
			t.Logf("shuffle records %d for |X| = %d over %d iterations", m.ShuffleRecords, want.Len(), rep.Iterations())
		})
	}
}
