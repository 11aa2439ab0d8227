package benchkit

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
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

// EdgeRelName is the relation/predicate name the triple table is bound to.
const EdgeRelName = "G"

// Budget bounds one query run. Timeout is the deadline of the run's
// session, which aborts its barriers, fixpoint iterations and supersteps;
// MaxMessages bounds Pregel message volume (simulated memory).
type Budget struct {
	Timeout     time.Duration
	MaxMessages int64
	Workers     int
	MaxPlans    int
}

func (b Budget) workers() int {
	if b.Workers <= 0 {
		return 4
	}
	return b.Workers
}

func (b Budget) maxPlans() int {
	if b.MaxPlans <= 0 {
		return rewrite.DefaultMaxPlans
	}
	return b.MaxPlans
}

// Result is the outcome of one (system, query, dataset) run.
type Result struct {
	System   string
	Seconds  float64
	Rows     int
	TimedOut bool
	Crashed  bool
	Err      error
	Info     string // plan name, shuffle counts, …
	Metrics  cluster.Snapshot
}

// Cell renders a result the way the paper's charts do: time in seconds,
// "X" for a crash, "T/O" at the timeout.
func (r Result) Cell() string {
	switch {
	case r.TimedOut:
		return "T/O"
	case r.Crashed:
		return "X"
	default:
		return fmt.Sprintf("%.3f", r.Seconds)
	}
}

// run is one system's work on a query, run inside one session.
type run func(s *cluster.Session) (*Result, error)

// runWithBudget executes f on a private cluster under the budget.
func runWithBudget(b Budget, transport cluster.TransportKind, f run) *Result {
	c, err := cluster.New(cluster.Config{Workers: b.workers(), Transport: transport})
	if err != nil {
		return &Result{Crashed: true, Err: err}
	}
	defer c.Close()
	return runOn(c, b, f)
}

// runOn executes f in one session of c whose context carries the budget's
// timeout. A run past it stops at its next barrier, fixpoint iteration or
// superstep and returns here as a timeout, so nothing of it outlives the
// call.
func runOn(c *cluster.Cluster, b Budget, f run) *Result {
	timeout := b.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	s := c.NewSession(ctx)
	defer s.Close()
	start := time.Now()
	res, err := f(s)
	switch {
	case err != nil && ctx.Err() != nil:
		return &Result{TimedOut: true, Seconds: timeout.Seconds()}
	case err != nil:
		return &Result{Crashed: true, Err: err, Seconds: time.Since(start).Seconds()}
	}
	res.Seconds = time.Since(start).Seconds()
	res.Metrics = s.Metrics().Snapshot()
	return res
}

// MuRAOptions tunes the Dist-µ-RA pipeline.
type MuRAOptions struct {
	// Force pins the physical fixpoint plan (Auto runs Ps_plw; spill
	// handles data larger than memory and Ppg_plw is a forced baseline).
	Force physical.Kind
	// SkipRewrite evaluates the naive translation (for ablations).
	SkipRewrite bool
	// Disabled disables specific rewrite rules (for ablations).
	Disabled map[string]bool
}

// PreparedMuRA is a query compiled by the full Dist-µ-RA pipeline
// (translate → rewrite space → cost-based selection), ready to execute.
type PreparedMuRA struct {
	Best      core.Term
	PlanSpace int
}

// PrepareMuRA runs the logical half of the pipeline.
func PrepareMuRA(g *graphgen.Graph, queryText string, b Budget, opts MuRAOptions) (*PreparedMuRA, error) {
	q, err := ucrpq.Parse(queryText)
	if err != nil {
		return nil, err
	}
	ltr, rtl, err := ucrpq.TranslateBoth(q, EdgeRelName, g.Dict)
	if err != nil {
		return nil, err
	}
	if opts.SkipRewrite {
		return &PreparedMuRA{Best: ltr, PlanSpace: 1}, nil
	}
	schemaEnv := core.SchemaEnv{EdgeRelName: g.Triples.Cols()}
	rw := rewrite.NewRewriter(schemaEnv)
	rw.MaxPlans = b.maxPlans()
	rw.Disabled = opts.Disabled
	plans := rw.ExploreBoth(ltr, rtl)
	cat := cost.NewCatalog()
	cat.BindRelation(EdgeRelName, g.Triples)
	best, _ := cost.SelectBest(plans, cat)
	return &PreparedMuRA{Best: best, PlanSpace: len(plans)}, nil
}

// RunMuRA executes a UCRPQ with the full Dist-µ-RA pipeline.
func RunMuRA(g *graphgen.Graph, queryText string, b Budget, opts MuRAOptions) *Result {
	prep, err := PrepareMuRA(g, queryText, b, opts)
	if err != nil {
		return &Result{System: "Dist-µ-RA", Crashed: true, Err: err}
	}
	res := RunMuRATerm(g.Env(EdgeRelName), prep.Best, b, opts)
	res.Info = fmt.Sprintf("%s plans=%d", res.Info, prep.PlanSpace)
	return res
}

// RunMuRATerm executes an already-chosen µ-RA term distributively (used
// for the C7 queries and the plan-comparison experiments).
func RunMuRATerm(env *core.Env, term core.Term, b Budget, opts MuRAOptions) *Result {
	res := runWithBudget(b, cluster.TransportChan, muraRun(env, term, opts))
	res.System = "Dist-µ-RA"
	return res
}

func muraRun(env *core.Env, term core.Term, opts MuRAOptions) run {
	return func(s *cluster.Session) (*Result, error) {
		planner := physical.NewSessionPlanner(s, env)
		planner.Force = opts.Force
		rel, rep, err := planner.Execute(term)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rel.Len(), Info: planInfo(rep)}, nil
	}
}

// planInfo renders a run's fixpoint plan kinds and total iterations, e.g.
// "Ps_plw iters=12"; empty when the run had no fixpoint.
func planInfo(rep *physical.Report) string {
	if len(rep.Fixpoints) == 0 {
		return ""
	}
	kinds := map[string]bool{}
	for _, f := range rep.Fixpoints {
		kinds[f.Kind.String()] = true
	}
	var ks []string
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return fmt.Sprintf("%s iters=%d", strings.Join(ks, "+"), rep.Iterations())
}

// RunBigDatalog executes a UCRPQ with the BigDatalog stand-in: translate
// left-to-right, apply magic sets, run the program as written on the
// engine (datalog.Run).
func RunBigDatalog(g *graphgen.Graph, queryText string, b Budget) *Result {
	q, err := ucrpq.Parse(queryText)
	if err != nil {
		return &Result{System: "BigDatalog", Crashed: true, Err: err}
	}
	tr := datalog.NewTranslator(EdgeRelName, g.Dict)
	prog, queryAtom, err := tr.Translate(q)
	if err != nil {
		return &Result{System: "BigDatalog", Crashed: true, Err: err}
	}
	mp, mq, err := datalog.MagicTransform(prog, queryAtom)
	if err != nil {
		return &Result{System: "BigDatalog", Crashed: true, Err: err}
	}
	return RunDatalogProgram(g.Env(EdgeRelName), datalog.EdgeCols(EdgeRelName), mp, mq, b)
}

// RunDatalogProgram executes a prepared Datalog program on the engine over
// the EDB relations env binds (edbCols gives their columns in argument
// order).
func RunDatalogProgram(env *core.Env, edbCols map[string][]string, prog *datalog.Program, query datalog.Atom, b Budget) *Result {
	res := runWithBudget(b, cluster.TransportChan, datalogRun(env, edbCols, prog, query))
	res.System = "BigDatalog"
	return res
}

func datalogRun(env *core.Env, edbCols map[string][]string, prog *datalog.Program, query datalog.Atom) run {
	return func(s *cluster.Session) (*Result, error) {
		rel, rep, err := datalog.Run(s, env, edbCols, prog, query)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rel.Len(), Info: planInfo(rep)}, nil
	}
}

// RunGraphX executes a UCRPQ with the GraphX stand-in: every atom's path
// expression is compiled to an NFA and evaluated by vertex-centric message
// passing (anchored at the subject when it is a constant); atom results
// are then joined on the driver.
func RunGraphX(g *graphgen.Graph, queryText string, b Budget) *Result {
	q, err := ucrpq.Parse(queryText)
	if err != nil {
		return &Result{System: "GraphX", Crashed: true, Err: err}
	}
	res := runWithBudget(b, cluster.TransportChan, graphXRun(g, q, b.MaxMessages))
	res.System = "GraphX"
	return res
}

func graphXRun(g *graphgen.Graph, q *ucrpq.Query, maxMessages int64) run {
	return func(s *cluster.Session) (*Result, error) {
		pg, err := pregel.LoadGraph(s, g.Triples)
		if err != nil {
			return nil, err
		}
		var joined *core.Relation
		supersteps := 0
		for _, atom := range q.Atoms {
			nfa := rpq.CompileNFA(atom.Path, g.Dict)
			opts := pregel.RPQOptions{MaxMessages: maxMessages}
			if !atom.Subj.IsVar {
				v, ok := g.Dict.Lookup(atom.Subj.Name)
				if !ok {
					return nil, fmt.Errorf("benchkit: unknown entity %q", atom.Subj.Name)
				}
				opts.StartNodes = []core.Value{v}
			}
			out, err := pg.RunRPQ(nfa, opts)
			if err != nil {
				return nil, err
			}
			supersteps += out.Supersteps
			pairs := out.Pairs
			// Apply endpoint constants / variable renaming like Query2Mu.
			rel, err := atomPairsToRel(pairs, atom, g.Dict)
			if err != nil {
				return nil, err
			}
			if joined == nil {
				joined = rel
			} else {
				joined = joined.Join(rel)
			}
		}
		// Project onto the head.
		keep := map[string]bool{}
		for _, h := range q.Head {
			keep[("?" + h)] = true
		}
		var drop []string
		for _, col := range joined.Cols() {
			if !keep[col] {
				drop = append(drop, col)
			}
		}
		if len(drop) > 0 {
			joined, err = joined.Drop(drop...)
			if err != nil {
				return nil, err
			}
		}
		return &Result{Rows: joined.Len(), Info: fmt.Sprintf("supersteps=%d", supersteps)}, nil
	}
}

// atomPairsToRel renames/filters the (src,trg) pair relation of one atom
// according to its endpoints, mirroring the UCRPQ translation.
func atomPairsToRel(pairs *core.Relation, atom ucrpq.Atom, dict *core.Dict) (*core.Relation, error) {
	rel := pairs
	var err error
	if atom.Obj.IsVar {
		if atom.Subj.IsVar && atom.Subj.Name == atom.Obj.Name {
			rel = rel.Filter(core.EqCols{A: core.ColSrc, B: core.ColTrg})
			rel, err = rel.Drop(core.ColTrg)
			if err != nil {
				return nil, err
			}
			return rel.Rename(core.ColSrc, "?"+atom.Subj.Name)
		}
		rel, err = rel.Rename(core.ColTrg, "?"+atom.Obj.Name)
		if err != nil {
			return nil, err
		}
	} else {
		v, ok := dict.Lookup(atom.Obj.Name)
		if !ok {
			return nil, fmt.Errorf("benchkit: unknown entity %q", atom.Obj.Name)
		}
		rel = rel.Filter(core.EqConst{Col: core.ColTrg, Val: v})
		rel, err = rel.Drop(core.ColTrg)
		if err != nil {
			return nil, err
		}
	}
	if atom.Subj.IsVar {
		return rel.Rename(core.ColSrc, "?"+atom.Subj.Name)
	}
	v, ok := dict.Lookup(atom.Subj.Name)
	if !ok {
		return nil, fmt.Errorf("benchkit: unknown entity %q", atom.Subj.Name)
	}
	rel = rel.Filter(core.EqConst{Col: core.ColSrc, Val: v})
	return rel.Drop(core.ColSrc)
}

// Table is a printable experiment result grid.
type Table struct {
	Title   string
	Columns []string
	Rows    []TableRow
	Notes   []string
}

// TableRow is one labeled row of cells.
type TableRow struct {
	Label string
	Cells []string
}

// Add appends a row.
func (t *Table) Add(label string, cells ...string) {
	t.Rows = append(t.Rows, TableRow{Label: label, Cells: cells})
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("query")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
		for _, r := range t.Rows {
			if i < len(r.Cells) && len(r.Cells[i]) > widths[i+1] {
				widths[i+1] = len(r.Cells[i])
			}
		}
	}
	fmt.Fprintf(w, "%-*s", widths[0]+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%*s  ", widths[i+1], c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", widths[0]+2, r.Label)
		for i := range t.Columns {
			cell := ""
			if i < len(r.Cells) {
				cell = r.Cells[i]
			}
			fmt.Fprintf(w, "%*s  ", widths[i+1], cell)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
