// Benchmarks reproducing every figure of the Dist-µ-RA paper's evaluation
// (§V). Each BenchmarkFigNN corresponds to one figure; sub-benchmarks give
// the series the figure plots (per query, per system, per size). The
// companion tool cmd/murabench prints the same experiments as tables at a
// larger scale. Paper-vs-measured outcomes are recorded in docs/paper-map.md §V.
package distmura_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datalog"
	"repro/internal/graphgen"
	"repro/internal/physical"
	"repro/internal/pregel"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// benchScale keeps the full -bench=. run in the minutes range.
func benchScale() benchkit.Scale {
	s := benchkit.TestScale()
	s.Workers = 2
	return s
}

func mustCluster(b *testing.B, workers int) *cluster.Cluster {
	b.Helper()
	c, err := cluster.New(cluster.Config{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// runTerm executes a µ-RA term once on a fresh planner.
func runTerm(b *testing.B, c *cluster.Cluster, env *core.Env, term core.Term, kind physical.Kind) {
	b.Helper()
	p := physical.NewPlanner(c, env)
	p.Force = kind
	if _, _, err := p.Execute(term); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkClosureKnowsDeep is the end-to-end fixpoint hot path: a deep
// knows+ transitive closure executed through the full distributed engine
// (plan selection, broadcast, parallel local loops, collect). This is the
// benchmark the streaming data plane refactor is accountable to at the
// system level.
func BenchmarkClosureKnowsDeep(b *testing.B) {
	g := graphgen.NewGraph("bench")
	for i := 0; i < 300; i++ {
		g.Add(fmt.Sprintf("p%d", i), "knows", fmt.Sprintf("p%d", i+1))
	}
	prep, err := benchkit.PrepareMuRA(g, "?x,?y <- ?x knows+ ?y",
		benchkit.Budget{MaxPlans: 32}, benchkit.MuRAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	env := g.Env(benchkit.EdgeRelName)
	for _, kind := range []physical.Kind{physical.Splw, physical.Pgplw, physical.Gld} {
		b.Run(kind.String(), func(b *testing.B) {
			c := mustCluster(b, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runTerm(b, c, env, prep.Best, kind)
			}
		})
	}
}

// BenchmarkFig05ConstantPartSweep reproduces Fig. 5 (left): Ppg_plw vs
// Ps_plw on a transitive-closure fixpoint while the constant part grows.
func BenchmarkFig05ConstantPartSweep(b *testing.B) {
	g := graphgen.ErdosRenyi(1200, 0.0015, nil, 1)
	edges := g.Binary("e")
	term := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
	for _, size := range []int{100, 400, 1000} {
		seed := core.NewRelation(core.ColSrc, core.ColTrg)
		for i, row := range edges.Rows() {
			if i >= size {
				break
			}
			seed.Add(row)
		}
		env := core.NewEnv()
		env.Bind("E", edges)
		env.Bind("S", seed)
		for _, kind := range []physical.Kind{physical.Pgplw, physical.Splw} {
			b.Run(fmt.Sprintf("R=%d/%s", size, kind), func(b *testing.B) {
				c := mustCluster(b, 2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runTerm(b, c, env, term, kind)
				}
			})
		}
	}
}

// BenchmarkFig05PhiSizeSweep reproduces Fig. 5 (right): the Pplw variants
// on anchored Kleene stars whose step expressions have growing pair
// counts.
func BenchmarkFig05PhiSizeSweep(b *testing.B) {
	g := graphgen.Yago(400, 1)
	cases := []struct {
		name, query string
	}{
		{"small", "?x <- Marie_Curie (hWP/-hWP)+ ?x"},
		{"medium", "?x <- S_Airport (isConnectedTo/-isConnectedTo)+ ?x"},
		{"large", "?x <- Kevin_Bacon (actedIn/-actedIn)+ ?x"},
	}
	for _, tc := range cases {
		prep, err := benchkit.PrepareMuRA(g, tc.query, benchkit.Budget{MaxPlans: 48}, benchkit.MuRAOptions{})
		if err != nil {
			b.Fatal(err)
		}
		env := g.Env(benchkit.EdgeRelName)
		for _, kind := range []physical.Kind{physical.Pgplw, physical.Splw} {
			b.Run(tc.name+"/"+kind.String(), func(b *testing.B) {
				c := mustCluster(b, 2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runTerm(b, c, env, prep.Best, kind)
				}
			})
		}
	}
}

// BenchmarkFig09PlwVsGld reproduces Fig. 9: the parallel-local-loop plans
// versus the global driver loop on Yago queries.
func BenchmarkFig09PlwVsGld(b *testing.B) {
	g := graphgen.Yago(400, 1)
	env := g.Env(benchkit.EdgeRelName)
	sample := []string{"Q1", "Q5", "Q8", "Q16"}
	for _, q := range benchkit.YagoQueries {
		if !containsStr(sample, q.ID) {
			continue
		}
		prep, err := benchkit.PrepareMuRA(g, q.Text, benchkit.Budget{MaxPlans: 48}, benchkit.MuRAOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []physical.Kind{physical.Auto, physical.Gld} {
			name := "Pplw"
			if kind == physical.Gld {
				name = "Pgld"
			}
			b.Run(q.ID+"/"+name, func(b *testing.B) {
				c := mustCluster(b, 2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runTerm(b, c, env, prep.Best, kind)
				}
			})
		}
	}
}

// BenchmarkFig10YagoSystems reproduces Fig. 10: Dist-µ-RA vs BigDatalog vs
// GraphX on Yago queries.
func BenchmarkFig10YagoSystems(b *testing.B) {
	s := benchScale()
	g := graphgen.Yago(s.YagoScale, s.Seed)
	sample := []string{"Q1", "Q5", "Q8", "Q12", "Q24"}
	for _, q := range benchkit.YagoQueries {
		if !containsStr(sample, q.ID) {
			continue
		}
		b.Run(q.ID+"/DistMuRA", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := benchkit.RunMuRA(g, q.Text, s.Budget(), benchkit.MuRAOptions{})
				failIfBad(b, res)
			}
		})
		b.Run(q.ID+"/BigDatalog", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := benchkit.RunBigDatalog(g, q.Text, s.Budget())
				failIfBad(b, res)
			}
		})
		b.Run(q.ID+"/GraphX", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := benchkit.RunGraphX(g, q.Text, s.Budget())
				if res.TimedOut {
					b.Fatal("timeout")
				}
				// GraphX crashing on heavy queries matches the paper.
				if res.Crashed {
					b.Skipf("crashed (paper reports the same): %v", res.Err)
				}
			}
		})
	}
}

// BenchmarkFig11NonRegular reproduces Fig. 11: anbn and the
// same-generation family.
func BenchmarkFig11NonRegular(b *testing.B) {
	s := benchScale()
	g := graphgen.SGGraph("AcTree", s.SGNodes, s.Seed)
	env := g.Env(benchkit.EdgeRelName)
	env.Bind("P", benchkit.PredSetRelation(g.Dict, []string{"a", "b"}))
	edbCols := datalog.EdgeCols(benchkit.EdgeRelName)
	edbCols["P"] = []string{core.ColPred}

	terms := map[string]core.Term{
		"anbn":       benchkit.AnBnTerm(benchkit.EdgeRelName, g.Dict, "a", "b"),
		"SG":         benchkit.SGTerm(benchkit.EdgeRelName),
		"FilteredSG": benchkit.FilteredSGTerm(benchkit.EdgeRelName, g.Dict, "a"),
		"JoinedSG":   benchkit.JoinedSGTerm(benchkit.EdgeRelName, "P"),
	}
	for _, name := range []string{"anbn", "SG", "FilteredSG", "JoinedSG"} {
		term := terms[name]
		b.Run(name+"/DistMuRA", func(b *testing.B) {
			c := mustCluster(b, 2)
			env := env
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runTerm(b, c, env, term, physical.Auto)
			}
		})
	}
	progs := map[string]func() (*datalog.Program, datalog.Atom){
		"anbn": func() (*datalog.Program, datalog.Atom) {
			return benchkit.AnBnProgram(benchkit.EdgeRelName, g.Dict, "a", "b")
		},
		"SG": func() (*datalog.Program, datalog.Atom) {
			return benchkit.SGProgram(benchkit.EdgeRelName)
		},
		"JoinedSG": func() (*datalog.Program, datalog.Atom) {
			return benchkit.JoinedSGProgram(benchkit.EdgeRelName, "P")
		},
	}
	for _, name := range []string{"anbn", "SG", "JoinedSG"} {
		mk := progs[name]
		b.Run(name+"/BigDatalog", func(b *testing.B) {
			c := mustCluster(b, 2)
			prog, atom := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := datalog.Run(c, env, edbCols, prog, atom); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("FilteredSG/GraphX", func(b *testing.B) {
		c := mustCluster(b, 2)
		pg, err := pregel.LoadGraph(c, g.Triples)
		if err != nil {
			b.Fatal(err)
		}
		la := g.Dict.Intern("a")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pg.RunSameGeneration(la, pregel.RPQOptions{MaxMessages: s.MaxMessages}); err != nil {
				if errors.Is(err, pregel.ErrMessageBudget) {
					// The paper reports the same crashes (Fig. 11 crosses).
					b.Skipf("message budget exhausted (paper: GraphX crashes): %v", err)
				}
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12ConcatClosures reproduces Fig. 12: a1+/…/an+ chains.
func BenchmarkFig12ConcatClosures(b *testing.B) {
	s := benchScale()
	labels := make([]string, 10)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i)
	}
	g := graphgen.ErdosRenyi(s.ConcatNodes, 2.0/float64(s.ConcatNodes), labels, s.Seed)
	for _, n := range []int{2, 4, 6} {
		expr := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				expr += "/"
			}
			expr += labels[i] + "+"
		}
		query := "?x,?y <- ?x " + expr + " ?y"
		b.Run(fmt.Sprintf("n=%d/DistMuRA", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				failIfBad(b, benchkit.RunMuRA(g, query, s.Budget(), benchkit.MuRAOptions{}))
			}
		})
		b.Run(fmt.Sprintf("n=%d/BigDatalog", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				failIfBad(b, benchkit.RunBigDatalog(g, query, s.Budget()))
			}
		})
	}
}

// BenchmarkFig13Uniprot reproduces Fig. 13: the Uniprot workload.
func BenchmarkFig13Uniprot(b *testing.B) {
	s := benchScale()
	g := graphgen.Uniprot(s.UniprotEdges, s.Seed)
	sample := []string{"Q26", "Q30", "Q33", "Q41", "Q45"}
	for _, q := range benchkit.UniprotQueries {
		if !containsStr(sample, q.ID) {
			continue
		}
		iq := benchkit.InstantiateUniprot(q)
		b.Run(q.ID+"/DistMuRA", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				failIfBad(b, benchkit.RunMuRA(g, iq.Text, s.Budget(), benchkit.MuRAOptions{}))
			}
		})
		b.Run(q.ID+"/BigDatalog", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				failIfBad(b, benchkit.RunBigDatalog(g, iq.Text, s.Budget()))
			}
		})
	}
}

// BenchmarkFig14UniprotScale reproduces Fig. 14: scalability over growing
// Uniprot graphs.
func BenchmarkFig14UniprotScale(b *testing.B) {
	s := benchScale()
	for _, size := range []int{s.UniprotEdges / 2, s.UniprotEdges, s.UniprotEdges * 2} {
		g := graphgen.Uniprot(size, s.Seed)
		iq := benchkit.InstantiateUniprot(benchkit.UniprotQueries[7]) // Q33
		b.Run(fmt.Sprintf("edges=%d/DistMuRA", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				failIfBad(b, benchkit.RunMuRA(g, iq.Text, s.Budget(), benchkit.MuRAOptions{}))
			}
		})
		b.Run(fmt.Sprintf("edges=%d/BigDatalog", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				failIfBad(b, benchkit.RunBigDatalog(g, iq.Text, s.Budget()))
			}
		})
	}
}

// BenchmarkFig15CostModel reproduces Fig. 15: plan-space exploration and
// cost estimation of all equivalent plans of a query (the execution side
// of the figure is produced by `murabench -experiment fig15`).
func BenchmarkFig15CostModel(b *testing.B) {
	g := graphgen.Yago(300, 1)
	q := benchkit.YagoQueries[23] // Q24
	parsed := ucrpq.MustParse(q.Text)
	term, err := ucrpq.Translate(parsed, benchkit.EdgeRelName, g.Dict, rpq.LeftToRight)
	if err != nil {
		b.Fatal(err)
	}
	cat := cost.NewCatalog()
	cat.BindRelation(benchkit.EdgeRelName, g.Triples)
	b.Run("explore+rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rw := rewrite.NewRewriter(core.SchemaEnv{benchkit.EdgeRelName: g.Triples.Cols()})
			rw.MaxPlans = 64 // the Fig. 15 experiment's cap
			plans := rw.Explore(term)
			best, ranking := cost.SelectBest(plans, cat)
			if best == nil || len(ranking) < 2 {
				b.Fatalf("plan space degenerate: %d", len(ranking))
			}
		}
	})
}

// BenchmarkAblationRewriteRules measures the fixpoint rewrite rules that
// docs/paper-map.md §II maps: the naive plan versus the optimized plan,
// and the optimized plan with the fixpoint-specific rules disabled.
func BenchmarkAblationRewriteRules(b *testing.B) {
	s := benchScale()
	g := graphgen.Yago(s.YagoScale, s.Seed)
	query := "?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon"
	variants := []struct {
		name string
		opts benchkit.MuRAOptions
	}{
		{"full", benchkit.MuRAOptions{}},
		{"no-rewrite", benchkit.MuRAOptions{SkipRewrite: true}},
		{"no-reversal", benchkit.MuRAOptions{Disabled: map[string]bool{"reverse-closure": true}}},
		{"no-filter-push", benchkit.MuRAOptions{Disabled: map[string]bool{"filter-into-fixpoint": true}}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				failIfBad(b, benchkit.RunMuRA(g, query, s.Budget(), v.opts))
			}
		})
	}
}

// BenchmarkTransports measures the cost of the real TCP data plane versus
// in-process channels on the same fixpoint.
func BenchmarkTransports(b *testing.B) {
	g := graphgen.Yago(300, 1)
	prep, err := benchkit.PrepareMuRA(g, "?x,?y <- ?x hasChild+ ?y",
		benchkit.Budget{MaxPlans: 32}, benchkit.MuRAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	env := g.Env(benchkit.EdgeRelName)
	for _, tr := range []cluster.TransportKind{cluster.TransportChan, cluster.TransportTCP} {
		name := "chan"
		if tr == cluster.TransportTCP {
			name = "tcp"
		}
		b.Run(name, func(b *testing.B) {
			c, err := cluster.New(cluster.Config{Workers: 2, Transport: tr})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runTerm(b, c, env, prep.Best, physical.Splw)
			}
		})
	}
}

func failIfBad(b *testing.B, res *benchkit.Result) {
	b.Helper()
	if res.Crashed {
		b.Fatalf("crashed: %v", res.Err)
	}
	if res.TimedOut {
		b.Fatal("timed out")
	}
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
