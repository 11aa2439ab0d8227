package benchkit

import (
	"fmt"
	"math"
	"sort"
	"time"

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

// Scale configures experiment sizes. The defaults reproduce the shape of
// the paper's figures at laptop scale (the paper used a 4×40 GB Spark
// cluster; README "Benchmarks and CI" gives the substitution).
type Scale struct {
	Seed         int64
	Workers      int
	Timeout      time.Duration
	MaxMessages  int64 // Pregel budget (simulated cluster memory)
	YagoScale    int
	UniprotEdges int
	SGNodes      int
	ConcatNodes  int
}

// DefaultScale returns the scale used by cmd/murabench.
func DefaultScale() Scale {
	return Scale{
		Seed:         1,
		Workers:      4,
		Timeout:      60 * time.Second,
		MaxMessages:  3_000_000,
		YagoScale:    2500,
		UniprotEdges: 15000,
		SGNodes:      1200,
		ConcatNodes:  800,
	}
}

// TestScale returns a small scale for unit/benchmark runs.
func TestScale() Scale {
	s := DefaultScale()
	s.Timeout = 20 * time.Second
	s.MaxMessages = 400_000
	s.YagoScale = 500
	s.UniprotEdges = 3000
	s.SGNodes = 250
	s.ConcatNodes = 200
	return s
}

func (s Scale) Budget() Budget {
	return Budget{Timeout: s.Timeout, MaxMessages: s.MaxMessages, Workers: s.Workers}
}

// Fig5Left reproduces the left chart of Fig. 5: P pg_plw versus P s_plw on
// a transitive-closure fixpoint over an Erdős-Rényi graph, sweeping the
// size of the constant part.
func Fig5Left(s Scale) *Table {
	nodes := s.ConcatNodes * 3
	g := graphgen.ErdosRenyi(nodes, 2.4/float64(nodes), nil, s.Seed)
	edges := g.Binary("e")
	t := &Table{
		Title:   "Fig. 5 (left): Ppg_plw vs Ps_plw — constant part size sweep (ER graph, " + fmt.Sprint(edges.Len()) + " edges)",
		Columns: []string{"Ppg_plw(s)", "Ps_plw(s)", "speedup(pg/s)"},
	}
	sizes := []int{edges.Len() / 20, edges.Len() / 8, edges.Len() / 4, edges.Len() / 2, edges.Len()}
	for _, size := range sizes {
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
		term := &core.Fixpoint{X: "X", Body: &core.Union{
			L: &core.Var{Name: "S"},
			R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
		}}
		pg := RunMuRATerm(env, term, s.Budget(), MuRAOptions{Force: physical.Pgplw})
		sp := RunMuRATerm(env, term, s.Budget(), MuRAOptions{Force: physical.Splw})
		ratio := "-"
		if pg.Seconds > 0 && sp.Seconds > 0 && !pg.TimedOut && !sp.TimedOut {
			ratio = fmt.Sprintf("%.2f", sp.Seconds/pg.Seconds)
		}
		t.Add(fmt.Sprintf("%d", size), pg.Cell(), sp.Cell(), ratio)
	}
	t.Notes = append(t.Notes, "speedup >1 means Ppg_plw faster (paper: Ppg wins as intermediate data grows)")
	return t
}

// Fig5Right reproduces the right chart of Fig. 5: the two Pplw variants on
// anchored Kleene-star navigations whose under-star expressions have
// growing pair counts (queries ranked by ϕ(X) size like the paper's
// x-axis).
func Fig5Right(s Scale) *Table {
	g := graphgen.Yago(s.YagoScale, s.Seed)
	exprs := []struct {
		anchor string
		expr   string
	}{
		{"Marie_Curie", "(hWP/-hWP)"},
		{"SH", "(haa|influences)"},
		{"S_Airport", "(isConnectedTo/-isConnectedTo)"},
		{"Japan", "(IsL|dw)"},
		{"Kevin_Bacon", "(actedIn/-actedIn)"},
		{"Japan", "(IsL|dw|rdfs:subClassOf|isConnectedTo)"},
	}
	type entry struct {
		label   string
		phiSize int
		pg, sp  *Result
	}
	var entries []entry
	for i, e := range exprs {
		phi, err := ucrpq.Translate(
			ucrpq.MustParse("?x,?y <- ?x "+e.expr+" ?y"), EdgeRelName, g.Dict, rpq.LeftToRight)
		phiSize := 0
		if err == nil {
			if rel, err := core.Eval(phi, g.Env(EdgeRelName)); err == nil {
				phiSize = rel.Len()
			}
		}
		query := fmt.Sprintf("?x <- %s %s+ ?x", e.anchor, e.expr)
		pg := RunMuRA(g, query, s.Budget(), MuRAOptions{Force: physical.Pgplw})
		sp := RunMuRA(g, query, s.Budget(), MuRAOptions{Force: physical.Splw})
		entries = append(entries, entry{
			label:   fmt.Sprintf("q%d |φstep|=%d", i+1, phiSize),
			phiSize: phiSize, pg: pg, sp: sp,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].phiSize < entries[j].phiSize })
	t := &Table{
		Title:   "Fig. 5 (right): Ppg_plw vs Ps_plw — φ(X) size sweep (Yago-like graph)",
		Columns: []string{"Ppg_plw(s)", "Ps_plw(s)", "speedup(pg/s)"},
	}
	for _, e := range entries {
		ratio := "-"
		if e.pg.Seconds > 0 && !e.pg.TimedOut && !e.sp.TimedOut {
			ratio = fmt.Sprintf("%.2f", e.sp.Seconds/e.pg.Seconds)
		}
		t.Add(e.label, e.pg.Cell(), e.sp.Cell(), ratio)
	}
	return t
}

// Fig9 reproduces Fig. 9: the Pplw plans versus the Pgld baseline on the
// Yago queries, with the shuffle counters that explain the gap.
func Fig9(s Scale) *Table {
	g := graphgen.Yago(s.YagoScale, s.Seed)
	t := &Table{
		Title:   "Fig. 9: Pplw vs Pgld on Yago queries",
		Columns: []string{"Pplw(s)", "Pgld(s)", "Pplw shuffles", "Pgld shuffles"},
	}
	for _, q := range YagoQueries {
		plw := RunMuRA(g, q.Text, s.Budget(), MuRAOptions{Force: physical.Auto})
		gld := RunMuRA(g, q.Text, s.Budget(), MuRAOptions{Force: physical.Gld})
		t.Add(q.ID, plw.Cell(), gld.Cell(),
			fmt.Sprint(plw.Metrics.ShufflePhases), fmt.Sprint(gld.Metrics.ShufflePhases))
	}
	t.Notes = append(t.Notes, "Pgld shuffles once per fixpoint iteration; Pplw only for unstable final unions")
	return t
}

// Fig10 reproduces Fig. 10: Dist-µ-RA vs BigDatalog vs GraphX on Q1–Q25.
func Fig10(s Scale) *Table {
	g := graphgen.Yago(s.YagoScale, s.Seed)
	t := &Table{
		Title:   "Fig. 10: running times on Yago (timeout " + s.Timeout.String() + ")",
		Columns: []string{"Dist-µ-RA", "BigDatalog", "GraphX", "classes"},
	}
	for _, q := range YagoQueries {
		mu := RunMuRA(g, q.Text, s.Budget(), MuRAOptions{})
		bd := RunBigDatalog(g, q.Text, s.Budget())
		gx := RunGraphX(g, q.Text, s.Budget())
		t.Add(q.ID, mu.Cell(), bd.Cell(), gx.Cell(), fmt.Sprint(q.Classes))
	}
	return t
}

// Fig11 reproduces Fig. 11: the non-regular C7 queries (anbn, same
// generation, filtered SG, joined SG) on the Fig. 11 graph stand-ins.
func Fig11(s Scale) *Table {
	t := &Table{
		Title:   "Fig. 11: non-regular (C7) µ-RA queries",
		Columns: []string{"Dist-µ-RA", "BigDatalog", "GraphX"},
	}
	graphs := []string{"Ragusan", "AcTree", "Epinions", "Wikitree"}
	queries := []string{"anbn", "SG", "FilteredSG", "JoinedSG"}
	for _, query := range queries {
		for _, name := range graphs {
			g := graphgen.SGGraph(name, s.SGNodes, s.Seed)
			mu, bd, gx := runC7(g, query, s)
			t.Add(query+"/"+name, mu.Cell(), bd.Cell(), gx.Cell())
		}
	}
	t.Notes = append(t.Notes,
		"GraphX token floods diverge on any cycle and exhaust the message budget (X) — the paper reports the same crashes on most graphs")
	return t
}

// runC7 evaluates one C7 query on all three systems.
func runC7(g *graphgen.Graph, query string, s Scale) (mu, bd, gx *Result) {
	dict := g.Dict
	env := g.Env(EdgeRelName)
	pset := []string{"a", "b"}
	env.Bind("P", PredSetRelation(dict, pset))
	edbCols := datalog.EdgeCols(EdgeRelName)
	edbCols["P"] = []string{core.ColPred}
	la, lb := dict.Intern("a"), dict.Intern("b")

	switch query {
	case "anbn":
		mu = RunMuRATerm(env, AnBnTerm(EdgeRelName, dict, "a", "b"), s.Budget(), MuRAOptions{})
		prog, atom := AnBnProgram(EdgeRelName, dict, "a", "b")
		bd = RunDatalogProgram(env, edbCols, prog, atom, s.Budget())
		gx = runPregelC7(g, s, func(pg *pregel.Graph) (int, error) {
			r, err := pg.RunAnBn(la, lb, pregel.RPQOptions{MaxMessages: s.MaxMessages})
			if err != nil {
				return 0, err
			}
			return r.Pairs.Len(), nil
		})
	case "SG":
		mu = RunMuRATerm(env, SGTerm(EdgeRelName), s.Budget(), MuRAOptions{})
		prog, atom := SGProgram(EdgeRelName)
		bd = RunDatalogProgram(env, edbCols, prog, atom, s.Budget())
		gx = runPregelC7(g, s, func(pg *pregel.Graph) (int, error) {
			total := 0
			for _, l := range []core.Value{la, lb, dict.Intern("c")} {
				r, err := pg.RunSameGeneration(l, pregel.RPQOptions{MaxMessages: s.MaxMessages})
				if err != nil {
					return 0, err
				}
				total += r.Pairs.Len()
			}
			return total, nil
		})
	case "FilteredSG":
		mu = RunMuRATerm(env, FilteredSGTerm(EdgeRelName, dict, "a"), s.Budget(), MuRAOptions{})
		prog, _ := SGProgram(EdgeRelName)
		fq := FilteredSGQuery(dict, "a")
		mp, mq, err := datalog.MagicTransform(prog, fq)
		if err != nil {
			bd = &Result{System: "BigDatalog", Crashed: true, Err: err}
		} else {
			bd = RunDatalogProgram(env, edbCols, mp, mq, s.Budget())
		}
		gx = runPregelC7(g, s, func(pg *pregel.Graph) (int, error) {
			r, err := pg.RunSameGeneration(la, pregel.RPQOptions{MaxMessages: s.MaxMessages})
			if err != nil {
				return 0, err
			}
			return r.Pairs.Len(), nil
		})
	case "JoinedSG":
		mu = RunMuRATerm(env, JoinedSGTerm(EdgeRelName, "P"), s.Budget(), MuRAOptions{})
		prog, atom := JoinedSGProgram(EdgeRelName, "P")
		bd = RunDatalogProgram(env, edbCols, prog, atom, s.Budget())
		gx = runPregelC7(g, s, func(pg *pregel.Graph) (int, error) {
			total := 0
			for _, l := range []core.Value{la, lb} {
				r, err := pg.RunSameGeneration(l, pregel.RPQOptions{MaxMessages: s.MaxMessages})
				if err != nil {
					return 0, err
				}
				total += r.Pairs.Len()
			}
			return total, nil
		})
	default:
		panic("benchkit: unknown C7 query " + query)
	}
	return mu, bd, gx
}

func runPregelC7(g *graphgen.Graph, s Scale, f func(pg *pregel.Graph) (int, error)) *Result {
	res := runWithBudget(s.Budget(), cluster.TransportChan, func(c *cluster.Cluster) (*Result, error) {
		pg, err := pregel.LoadGraph(c, g.Triples)
		if err != nil {
			return nil, err
		}
		rows, err := f(pg)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows}, nil
	})
	res.System = "GraphX"
	return res
}

// Fig12 reproduces Fig. 12: concatenated closures a1+/…/an+ for n = 2…10
// on a labeled random graph.
func Fig12(s Scale) *Table {
	labels := make([]string, 10)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i)
	}
	g := graphgen.ErdosRenyi(s.ConcatNodes, 2.0/float64(s.ConcatNodes), labels, s.Seed)
	t := &Table{
		Title:   "Fig. 12: concatenated closures a1+/…/an+ (labeled ER graph)",
		Columns: []string{"Dist-µ-RA", "BigDatalog", "GraphX"},
	}
	for n := 2; n <= 10; n++ {
		expr := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				expr += "/"
			}
			expr += labels[i] + "+"
		}
		query := "?x,?y <- ?x " + expr + " ?y"
		mu := RunMuRA(g, query, s.Budget(), MuRAOptions{})
		bd := RunBigDatalog(g, query, s.Budget())
		gx := RunGraphX(g, query, s.Budget())
		t.Add(fmt.Sprintf("n=%d", n), mu.Cell(), bd.Cell(), gx.Cell())
	}
	t.Notes = append(t.Notes, "paper: BigDatalog fails for n ≥ 5, GraphX crashes on all")
	return t
}

// Fig13 reproduces Fig. 13: the Uniprot queries on one graph size.
func Fig13(s Scale) *Table {
	g := graphgen.Uniprot(s.UniprotEdges, s.Seed)
	t := &Table{
		Title:   fmt.Sprintf("Fig. 13: running times on uniprot_%d", s.UniprotEdges),
		Columns: []string{"Dist-µ-RA", "BigDatalog", "GraphX"},
	}
	for _, q := range UniprotQueries {
		iq := InstantiateUniprot(q)
		mu := RunMuRA(g, iq.Text, s.Budget(), MuRAOptions{})
		bd := RunBigDatalog(g, iq.Text, s.Budget())
		gx := RunGraphX(g, iq.Text, s.Budget())
		t.Add(q.ID, mu.Cell(), bd.Cell(), gx.Cell())
	}
	return t
}

// Fig14 reproduces Fig. 14: Dist-µ-RA vs BigDatalog across Uniprot sizes.
func Fig14(s Scale) *Table {
	sizes := []int{s.UniprotEdges / 2, s.UniprotEdges, s.UniprotEdges * 2}
	t := &Table{
		Title:   "Fig. 14: scalability on Uniprot graphs of growing size",
		Columns: []string{"size", "Dist-µ-RA", "BigDatalog"},
	}
	for _, q := range UniprotQueries {
		for _, size := range sizes {
			g := graphgen.Uniprot(size, s.Seed)
			iq := InstantiateUniprot(q)
			mu := RunMuRA(g, iq.Text, s.Budget(), MuRAOptions{})
			bd := RunBigDatalog(g, iq.Text, s.Budget())
			t.Add(q.ID, fmt.Sprint(size), mu.Cell(), bd.Cell())
		}
	}
	return t
}

// Fig15 reproduces Fig. 15 and the §V-E.6 aggregate: estimated costs of
// all equivalent plans of a query versus their measured times, plus the
// rank statistics of the cost-selected plan.
func Fig15(s Scale, queryID string) *Table {
	g := graphgen.Yago(s.YagoScale, s.Seed)
	var query Query
	for _, q := range YagoQueries {
		if q.ID == queryID {
			query = q
		}
	}
	if query.ID == "" {
		query = YagoQueries[23] // Q24, like the paper
	}
	q := ucrpq.MustParse(query.Text)
	ltr, _, err := ucrpq.TranslateBoth(q, EdgeRelName, g.Dict)
	if err != nil {
		return &Table{Title: "Fig. 15: error: " + err.Error()}
	}
	rw := rewrite.NewRewriter(core.SchemaEnv{EdgeRelName: g.Triples.Cols()})
	rw.MaxPlans = 64 // one direction only: Fig. 15 ranks a small space
	plans := rw.Explore(ltr)
	cat := cost.NewCatalog()
	cat.BindRelation(EdgeRelName, g.Triples)
	_, ranking := cost.SelectBest(plans, cat)

	type measured struct {
		idx     int
		cost    float64
		seconds float64
		timeout bool
	}
	var ms []measured
	env := g.Env(EdgeRelName)
	for i, r := range ranking {
		res := RunMuRATerm(env, r.Plan, s.Budget(), MuRAOptions{})
		ms = append(ms, measured{idx: i, cost: r.Cost, seconds: res.Seconds, timeout: res.TimedOut})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].cost < ms[j].cost })
	t := &Table{
		Title:   fmt.Sprintf("Fig. 15: estimated cost vs measured time for all %d plans of %s", len(ms), query.ID),
		Columns: []string{"est. cost", "time(s)"},
	}
	for rank, m := range ms {
		cell := fmt.Sprintf("%.3f", m.seconds)
		if m.timeout {
			cell = "T/O"
		}
		t.Add(fmt.Sprintf("plan#%d", rank+1), fmt.Sprintf("%.3g", m.cost), cell)
	}
	// §V-E.6 aggregate for the selected (cheapest-cost) plan.
	if len(ms) > 1 {
		selected := ms[0].seconds
		best, sum := math.Inf(1), 0.0
		slower := 0
		for _, m := range ms {
			if m.seconds < best {
				best = m.seconds
			}
			sum += m.seconds
			if m.seconds >= selected {
				slower++
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"selected plan: within top %.1f%% of times; %.0f%% faster than average; %.0f%% slower than best",
			100*float64(len(ms)-slower)/float64(len(ms)),
			100*(1-selected/(sum/float64(len(ms)))),
			100*(selected/best-1)))
	}
	return t
}
