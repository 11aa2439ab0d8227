package testkit

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	distmura "repro"
	"repro/internal/core"
)

// This file is the differential route for the live-graph maintenance
// path: repeated queries interleaved with fuzzed mixed mutation batches
// (inserts and deletes) on two engines sharing one graph — one serving
// repeats through the sub-result cache (stale entries upgraded in place
// from the graph's change log, running DRed retraction first when the
// pending delta carries removals), one with the cache disabled (every
// repeat recomputed from scratch). Any divergence between a maintained
// result and its recompute is a bug in the delete-rederive pass or the
// delta-seeded semi-naive resume. On the plain closure the maintenance
// counters are checked exactly as well: a round's refresh must report as
// added exactly the rows the result gained, and as retracted-but-not-
// rederived exactly the rows it lost.

// IncrementalOptions bounds one incremental differential run.
type IncrementalOptions struct {
	// Seed drives all generation; runs are deterministic per seed.
	Seed int64
	// Graphs is the number of random graphs (default 4).
	Graphs int
	// QueriesPerGraph is the number of random queries re-run per graph in
	// every round, beyond the always-included plain closure (default 3).
	QueriesPerGraph int
	// Rounds is the number of mutation-batch + re-query rounds per graph
	// (default 4).
	Rounds int
	// BatchSize is the number of fuzzed mutations per round (default 6).
	// Each mutation is drawn from a mix of inserts (new frontier node,
	// duplicate edge, random edge) and deletes (random existing edge,
	// edge inserted earlier in the same batch, non-existent edge).
	BatchSize int
	// Workers is the cluster size of both engines (default 2).
	Workers int
}

func (o *IncrementalOptions) fill() {
	if o.Graphs <= 0 {
		o.Graphs = 4
	}
	if o.QueriesPerGraph <= 0 {
		o.QueriesPerGraph = 3
	}
	if o.Rounds <= 0 {
		o.Rounds = 4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 6
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
}

// IncrementalReport summarizes an incremental differential run.
type IncrementalReport struct {
	Graphs  int
	Queries int
	// Rounds counts (graph, round) mutation batches applied; Checks counts
	// (graph, round, query) refresh-vs-recompute comparisons.
	Rounds int
	Checks int
	// Deletes counts edges actually removed across all batches — the
	// guard that the fuzz mix exercised retraction at all.
	Deletes int
	// ResultRows sums the compared result sizes — the guard against a run
	// that "agrees" only because every result was empty.
	ResultRows int
	// Refreshes / RefreshRows aggregate the cached engines' in-place
	// upgrades — the guard that the runs actually exercised the refresh
	// path instead of recomputing everything.
	Refreshes   int64
	RefreshRows int64
	// Retractions / RederivedRows aggregate the DRed passes those
	// upgrades ran when their deltas carried removals: rows over-deleted
	// in phase 1 and rows rederived back in phases 2–3. Retractions > 0
	// proves maintained results flowed through delete-rederive rather
	// than eviction-plus-recompute.
	Retractions   int64
	RederivedRows int64
}

// sortedRows renders a result as canonical sorted strings.
func sortedRows(res *distmura.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, strings.Join(r, "\t"))
	}
	sort.Strings(out)
	return out
}

// RunIncremental runs the incremental differential harness, returning a
// summary or the first divergence as an error.
func RunIncremental(opts IncrementalOptions) (IncrementalReport, error) {
	opts.fill()
	rep := IncrementalReport{}
	rng := rand.New(rand.NewSource(opts.Seed))
	ctx := context.Background()
	for gi := 0; gi < opts.Graphs; gi++ {
		kind := GraphKind(gi % int(numGraphKinds))
		g := RandomGraph(rng, kind, 6+rng.Intn(14), 1+rng.Intn(3))
		rep.Graphs++

		cached, err := distmura.Open(distmura.Options{Workers: opts.Workers})
		if err != nil {
			return rep, err
		}
		fresh, err := distmura.Open(distmura.Options{Workers: opts.Workers, DisableSubResultCache: true})
		if err != nil {
			cached.Close()
			return rep, err
		}
		cached.UseGraph(g.G)
		fresh.UseGraph(g.G)

		// The plain single-label closure is always included: its cached
		// fixpoint is guaranteed refreshable, so every round exercises the
		// upgrade path even when the fuzzed queries land on non-monotone
		// or wildcard shapes (which legitimately fall back to eviction).
		queries := []string{"?x,?y <- ?x l0+ ?y"}
		for qi := 0; qi < opts.QueriesPerGraph; qi++ {
			queries = append(queries, RandomQuery(rng, g))
		}
		rep.Queries += len(queries)

		var prevClosure []string // the closure's rows after the previous round
		check := func(round int) error {
			for qi, q := range queries {
				got, err := cached.QueryCollect(ctx, q)
				if err != nil {
					return fmt.Errorf("cached engine, query %q: %w", q, err)
				}
				want, err := fresh.QueryCollect(ctx, q)
				if err != nil {
					return fmt.Errorf("recompute engine, query %q: %w", q, err)
				}
				gs, ws := sortedRows(got), sortedRows(want)
				if len(gs) != len(ws) {
					return fmt.Errorf("round %d, query %q: refreshed %d rows, recompute %d", round, q, len(gs), len(ws))
				}
				for i := range gs {
					if gs[i] != ws[i] {
						return fmt.Errorf("round %d, query %q: row %d: refreshed %q, recompute %q", round, q, i, gs[i], ws[i])
					}
				}
				if qi == 0 {
					if round > 0 {
						if err := checkNetDelta(got.Stats, prevClosure, gs); err != nil {
							return fmt.Errorf("round %d, query %q: %w", round, q, err)
						}
					}
					prevClosure = gs
				}
				rep.Checks++
				rep.ResultRows += len(gs)
			}
			return nil
		}

		// Row layout of the triple store (columns are schema-sorted, not
		// (src, pred, trg)), needed to hand RowAt rows back to AddV/DeleteV.
		si := core.ColIndex(g.G.Triples.Cols(), core.ColSrc)
		pi := core.ColIndex(g.G.Triples.Cols(), core.ColPred)
		ti := core.ColIndex(g.G.Triples.Cols(), core.ColTrg)

		runGraph := func() error {
			// Round 0 populates the caches; later rounds mutate first, so
			// every repeat hits a stale (or still-valid) entry.
			if err := check(0); err != nil {
				return err
			}
			for round := 1; round <= opts.Rounds; round++ {
				lab := func() string { return g.Labels[rng.Intn(len(g.Labels))] }
				// Edges inserted earlier in this same batch — candidates
				// for immediate deletion, so one round's net delta can
				// carry an add and its cancelling remove.
				var freshEdges [][3]core.Value
				for b := 0; b < opts.BatchSize; b++ {
					switch rng.Intn(8) {
					case 0: // brand-new node extending the frontier
						nn := fmt.Sprintf("x%d_%d_%d", gi, round, b)
						g.G.Add(g.Nodes[rng.Intn(len(g.Nodes))], lab(), nn)
						g.Nodes = append(g.Nodes, nn)
					case 1: // duplicate of an existing edge (a no-op)
						if g.G.Edges() > 0 {
							row := g.G.Triples.RowAt(rng.Intn(g.G.Edges()))
							g.G.AddV(row[si], row[pi], row[ti])
						}
					case 2, 3: // delete a random existing edge
						if g.G.Edges() > 0 {
							row := g.G.Triples.RowAt(rng.Intn(g.G.Edges()))
							if g.G.DeleteV(row[si], row[pi], row[ti]) {
								rep.Deletes++
							}
						}
					case 4: // delete an edge inserted earlier in this batch
						if len(freshEdges) > 0 {
							e := freshEdges[rng.Intn(len(freshEdges))]
							if g.G.DeleteV(e[0], e[1], e[2]) {
								rep.Deletes++
							}
						}
					case 5: // delete a non-existent edge: a complete no-op
						if g.G.Delete(g.Nodes[rng.Intn(len(g.Nodes))], "no-such-label", g.Nodes[rng.Intn(len(g.Nodes))]) {
							return fmt.Errorf("round %d: deleting a never-inserted edge reported present", round)
						}
					default: // random edge between existing nodes
						src := g.Nodes[rng.Intn(len(g.Nodes))]
						l := lab()
						trg := g.Nodes[rng.Intn(len(g.Nodes))]
						g.G.Add(src, l, trg)
						s, _ := g.G.Dict.Lookup(src)
						p, _ := g.G.Dict.Lookup(l)
						tv, _ := g.G.Dict.Lookup(trg)
						freshEdges = append(freshEdges, [3]core.Value{s, p, tv})
					}
				}
				rep.Rounds++
				if err := check(round); err != nil {
					return err
				}
			}
			return nil
		}
		err = runGraph()
		cs := cached.SubResultCacheStats()
		rep.Refreshes += cs.Refreshes
		rep.RefreshRows += cs.RefreshRows
		rep.Retractions += cs.Retractions
		rep.RederivedRows += cs.RederivedRows
		cached.Close()
		fresh.Close()
		if err != nil {
			return rep, fmt.Errorf("graph %d (%s): %w", gi, g.Desc(), err)
		}
	}
	return rep, nil
}

// checkNetDelta asserts that a query's maintenance counters account for
// its result's net change exactly: RefreshRows = |cur \ prev| and
// Retractions − RederivedRows = |prev \ cur|.
func checkNetDelta(st distmura.QueryStats, prev, cur []string) error {
	gained, lost := len(cur), len(prev)
	in := make(map[string]bool, len(prev))
	for _, r := range prev {
		in[r] = true
	}
	for _, r := range cur {
		if in[r] {
			gained--
			lost--
		}
	}
	if st.RefreshRows != int64(gained) || st.Retractions-st.RederivedRows != int64(lost) {
		return fmt.Errorf("refresh reported %d rows added and %d−%d retracted net, the result gained %d and lost %d",
			st.RefreshRows, st.Retractions, st.RederivedRows, gained, lost)
	}
	return nil
}
