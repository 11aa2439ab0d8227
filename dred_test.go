package distmura

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// These are the retraction-maintenance tests: DRed's over-delete /
// rederive phases observed through the public engine surface (delete an
// edge, re-run the query, compare against a cache-disabled recompute and
// against the Retractions/RederivedRows counters), plus the cache-API
// determinism cases a full engine cannot pin down (a delete racing an
// in-flight computation, a stale-by-deletion entry that must never be
// served).

// dredDiamond is the canonical over-delete-then-rederive graph: two
// disjoint paths a→b→d and a→c→d into a shared tail d→e. Deleting b→d
// destroys (b,d) and (b,e) but (a,d) and (a,e) survive via c — phase 1
// must over-delete all four and phase 2 must rederive the survivors.
func dredDiamond() *graphgen.Graph {
	g := graphgen.NewGraph("dred-diamond")
	g.Add("a", "knows", "b")
	g.Add("b", "knows", "d")
	g.Add("a", "knows", "c")
	g.Add("c", "knows", "d")
	g.Add("d", "knows", "e")
	return g
}

// dredEngines returns a cached engine and a cache-disabled reference
// engine sharing one graph.
func dredEngines(t *testing.T, g *graphgen.Graph) (eng, iso *Engine) {
	t.Helper()
	eng, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	eng.UseGraph(g)
	iso, err = Open(Options{Workers: 2, DisableSubResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { iso.Close() })
	iso.UseGraph(g)
	return eng, iso
}

// TestDRedOverDeleteRederive is the core DRed property: deleting an edge
// whose derived pairs partly survive via an alternative path must retract
// exactly the dead pairs, and the counters must show that the maintenance
// over-deleted and then salvaged — not that the entry was recomputed.
func TestDRedOverDeleteRederive(t *testing.T) {
	eng, iso := dredEngines(t, dredDiamond())
	const q = "?x,?y <- ?x knows+ ?y"
	collectSorted(t, eng, q) // populate the cache

	if !eng.DeleteTriple("b", "knows", "d") {
		t.Fatal("DeleteTriple reported the edge absent")
	}
	got, stats := collectSorted(t, eng, q)
	want, _ := collectSorted(t, iso, q)
	sameRows(t, "after delete", got, want)
	for _, row := range got {
		if row == "b\td" || row == "b\te" {
			t.Errorf("retracted pair %q still served", row)
		}
	}
	if stats.Refreshes == 0 || stats.SubResultHits == 0 {
		t.Errorf("deletion was not absorbed by an in-place refresh: %+v", stats)
	}
	// Phase 1 over-deletes (b,d), (b,e) and the survivors (a,d), (a,e);
	// phases 2–3 must bring the survivors back.
	if stats.Retractions < 4 {
		t.Errorf("Retractions = %d, want >= 4 (over-deletion must cover transitive consequences)", stats.Retractions)
	}
	if stats.RederivedRows < 2 {
		t.Errorf("RederivedRows = %d, want >= 2 (alternative-path pairs must be salvaged)", stats.RederivedRows)
	}
	if net := stats.Retractions - stats.RederivedRows; net != 2 {
		t.Errorf("net retracted rows = %d, want 2 ((b,d) and (b,e))", net)
	}
	cs := eng.SubResultCacheStats()
	if cs.Retractions != stats.Retractions || cs.RederivedRows != stats.RederivedRows {
		t.Errorf("engine-wide counters %+v disagree with query stats %+v", cs, stats)
	}
	if cs.Invalidations != 0 {
		t.Errorf("maintainable deletion caused invalidations: %+v", cs)
	}
}

// TestDRedDeleteNonexistentNoOp: deleting an absent edge must not touch
// the change log, the generations, or the cache.
func TestDRedDeleteNonexistentNoOp(t *testing.T) {
	eng, iso := dredEngines(t, dredDiamond())
	const q = "?x,?y <- ?x knows+ ?y"
	collectSorted(t, eng, q)

	gen := eng.Graph().Generation()
	if eng.DeleteTriple("a", "knows", "zzz") {
		t.Fatal("DeleteTriple invented an edge")
	}
	if eng.DeleteTriple("never", "interned", "either") {
		t.Fatal("DeleteTriple deleted with never-interned identifiers")
	}
	if got := eng.Graph().Generation(); got != gen {
		t.Errorf("no-op delete bumped the generation: %d -> %d", gen, got)
	}
	got, stats := collectSorted(t, eng, q)
	want, _ := collectSorted(t, iso, q)
	sameRows(t, "after no-op delete", got, want)
	if stats.Refreshes != 0 || stats.Retractions != 0 {
		t.Errorf("no-op delete triggered maintenance: %+v", stats)
	}
	if stats.SubResultHits == 0 {
		t.Errorf("entry should still be served untouched: %+v", stats)
	}
}

// TestDRedDeleteEverything: retracting every edge must drain the cached
// fixpoint to the empty result through maintenance, not eviction.
func TestDRedDeleteEverything(t *testing.T) {
	g := dredDiamond()
	eng, iso := dredEngines(t, g)
	const q = "?x,?y <- ?x knows+ ?y"
	collectSorted(t, eng, q)

	for _, e := range [][3]string{
		{"a", "knows", "b"}, {"b", "knows", "d"}, {"a", "knows", "c"},
		{"c", "knows", "d"}, {"d", "knows", "e"},
	} {
		if !eng.DeleteTriple(e[0], e[1], e[2]) {
			t.Fatalf("edge %v missing", e)
		}
	}
	got, stats := collectSorted(t, eng, q)
	want, _ := collectSorted(t, iso, q)
	sameRows(t, "after delete-everything", got, want)
	if len(got) != 0 {
		t.Fatalf("closure of an empty graph has %d rows", len(got))
	}
	if stats.Refreshes == 0 || stats.Retractions == 0 {
		t.Errorf("empty fixpoint not reached through maintenance: %+v", stats)
	}
	if stats.RederivedRows != 0 {
		t.Errorf("nothing can be rederived from an empty graph: %+v", stats)
	}
}

// TestDRedInterleavedDeleteInsert: a delta carrying both a removal and
// inserts in one window, including an insert that restores a deleted
// edge's consequences through a different path.
func TestDRedInterleavedDeleteInsert(t *testing.T) {
	eng, iso := dredEngines(t, dredDiamond())
	const q = "?x,?y <- ?x knows+ ?y"
	collectSorted(t, eng, q)

	// One window: kill both paths into d, then bridge b back to the tail.
	eng.DeleteTriple("b", "knows", "d")
	eng.DeleteTriple("c", "knows", "d")
	eng.AddTriple("b", "knows", "e")
	got, stats := collectSorted(t, eng, q)
	want, _ := collectSorted(t, iso, q)
	sameRows(t, "mixed window", got, want)
	if stats.Refreshes == 0 || stats.Retractions == 0 {
		t.Errorf("mixed delta not absorbed by maintenance: %+v", stats)
	}
}

// TestDRedDeleteDuringInFlightRefresh pins the snapshot-before-compute
// rule against deletions at the cache API, where the interleaving is
// deterministic: an entry whose computation straddles a delete must not
// validate when kept, exactly as for a straddled insert.
func TestDRedDeleteDuringInFlightRefresh(t *testing.T) {
	g := graphgen.NewGraph("inflight-del")
	g.Add("a", "p", "b")
	g.Add("b", "p", "c")
	p, _ := g.Dict.Lookup("p")
	c := newSubResultCache(core.NewOperandMemo(0))
	term := core.ClosureLR("X", core.EdgeRel(edgeRel, p))
	ctx := context.Background()

	// The leader snapshotted generations before this delete, so its rows
	// may or may not include b→c's consequences — either way they must
	// not be served as current.
	_, _, err := c.operand(ctx, g, "k", term, func() (*core.Relation, error) {
		if !g.Delete("b", "p", "c") {
			t.Fatal("delete failed")
		}
		return core.NewRelation("src", "trg"), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	led := false
	_, out, err := c.operand(ctx, g, "k", term, func() (*core.Relation, error) {
		led = true
		return nil, fmt.Errorf("synthetic abort")
	})
	if !led && err != nil {
		t.Fatal(err)
	}
	if !led && !out.refreshed {
		t.Fatal("entry kept over a straddled delete was served without maintenance")
	}
}

// TestDRedStaleByDeletionNeverServed is the satellite-4 regression test:
// an entry whose term cannot be maintained (wildcard footprint) and went
// stale through a deletion must be invalidated and recomputed — under no
// interleaving may the pre-delete rows be returned.
func TestDRedStaleByDeletionNeverServed(t *testing.T) {
	g := graphgen.NewGraph("stale-del")
	g.Add("a", "p", "b")
	c := newSubResultCache(core.NewOperandMemo(0))
	term := &core.Var{Name: edgeRel} // wildcard footprint: not maintainable
	ctx := context.Background()
	stale := core.NewRelation("src", "trg")
	if _, _, err := c.operand(ctx, g, "k", term, func() (*core.Relation, error) { return stale, nil }); err != nil {
		t.Fatal(err)
	}

	op, out, err := c.operand(ctx, g, "k", term, func() (*core.Relation, error) {
		t.Fatal("fresh entry derived again")
		return nil, nil
	})
	if err != nil || !out.hit || op.Rel() != stale {
		t.Fatalf("fresh entry not served: hit=%t err=%v", out.hit, err)
	}

	if !g.Delete("a", "p", "b") {
		t.Fatal("delete failed")
	}
	led := false
	op, out, err = c.operand(ctx, g, "k", term, func() (*core.Relation, error) {
		led = true
		return nil, fmt.Errorf("synthetic abort")
	})
	if op != nil || out.hit {
		t.Fatal("stale-by-deletion entry was served")
	}
	if !led || err == nil {
		t.Fatal("caller not promoted to leader after invalidation")
	}
	if c.invalidations.Load() == 0 {
		t.Error("deletion did not count as an invalidation")
	}
}

// TestConcurrentRetractionStress is the writers-vs-retraction -race lane,
// mirroring TestConcurrentRefreshStress with mixed mutation phases: each
// round inserts a small chain, grafts it onto the graph, and deletes
// existing edges (some just inserted, one long-lived), then a burst of
// concurrent readers must all serve rows equal to a cache-disabled
// recompute, with one goroutine leading the DRed upgrade.
func TestConcurrentRetractionStress(t *testing.T) {
	g := subTestGraph()
	eng, iso := dredEngines(t, g)

	const q = "?x,?y <- ?x knows+ ?y"
	collectSorted(t, eng, q) // populate the cache

	const rounds, readers = 6, 6
	for round := 0; round < rounds; round++ {
		// Mutation phase: writers run alone (the graph's documented
		// contract — mutation is atomic w.r.t. snapshots, not queries).
		for i := 0; i < 4; i++ {
			eng.AddTriple(fmt.Sprintf("s%d_%d", round, i), "knows", fmt.Sprintf("s%d_%d", round, i+1))
		}
		eng.AddTriple(fmt.Sprintf("n%d", round), "knows", fmt.Sprintf("s%d_0", round))
		// Delete a just-inserted link, re-sever the graft, and retract a
		// long-lived chain edge (different one per round).
		eng.DeleteTriple(fmt.Sprintf("s%d_1", round), "knows", fmt.Sprintf("s%d_2", round))
		eng.DeleteTriple(fmt.Sprintf("n%d", round), "knows", fmt.Sprintf("s%d_0", round))
		eng.DeleteTriple(fmt.Sprintf("n%d", 10+round), "knows", fmt.Sprintf("n%d", 11+round))

		want, _ := collectSorted(t, iso, q)
		var wg sync.WaitGroup
		rows := make([][]string, readers)
		errs := make([]error, readers)
		start := make(chan struct{})
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				res, err := eng.QueryCollect(context.Background(), q)
				if err != nil {
					errs[i] = err
					return
				}
				out := make([]string, 0, len(res.Rows))
				for _, r := range res.Rows {
					out = append(out, strings.Join(r, "\t"))
				}
				sort.Strings(out)
				rows[i] = out
			}(i)
		}
		close(start)
		wg.Wait()
		for i := 0; i < readers; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d reader %d: %v", round, i, errs[i])
			}
			sameRows(t, fmt.Sprintf("round %d reader %d", round, i), rows[i], want)
		}
	}
	cs := eng.SubResultCacheStats()
	if cs.Retractions == 0 {
		t.Errorf("no retraction maintenance ran across %d delete rounds: %+v", rounds, cs)
	}
	if cs.Refreshes == 0 {
		t.Errorf("no in-place refreshes across the rounds: %+v", cs)
	}
}

// TestRefreshOutcomeExact pins refreshSubResult's outcome to set algebra,
// below the engine: on random graphs, rounds of random mixed deltas
// (deletes, inserts, and deleted edges inserted back) are maintained from
// the previous round's rows, and every round the maintained relation must
// equal a from-scratch evaluation over the mutated graph, and the
// counters must be exact net counts: added = |new \ old| and
// retracted − rederived = |old \ new|. The second term reads the graph at
// two φ occurrences, so a removed or added edge is differentiated at each.
func TestRefreshOutcomeExact(t *testing.T) {
	retracting := 0 // seeds on which some round over-deleted rows
	for seed := int64(1); seed <= 6; seed++ {
		g := graphgen.ErdosRenyi(36, 0.06, []string{"a", "b"}, seed)
		a, _ := g.Dict.Lookup("a")
		b, _ := g.Dict.Lookup("b")
		ea, eb := core.EdgeRel(edgeRel, a), core.EdgeRel(edgeRel, b)
		terms := []*core.Fixpoint{
			core.ClosureLR("X", ea),
			{X: "X", Body: &core.Union{L: ea, R: core.Compose(ea, core.Compose(&core.Var{Name: "X"}, eb))}},
		}
		eval := func(fp *core.Fixpoint) *core.Relation {
			r, err := core.Eval(fp, g.Env(edgeRel))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		rels := make([]*core.Relation, len(terms))
		for i, fp := range terms {
			rels[i] = eval(fp)
		}
		preds := []core.Value{a, b}
		var nodes []core.Value
		for i := 0; i < 36; i++ {
			v, _ := g.Dict.Lookup(fmt.Sprintf("n%d", i))
			nodes = append(nodes, v)
		}
		si := core.ColIndex(g.Triples.Cols(), core.ColSrc)
		pi := core.ColIndex(g.Triples.Cols(), core.ColPred)
		ti := core.ColIndex(g.Triples.Cols(), core.ColTrg)
		rng := rand.New(rand.NewSource(seed))
		retracted := false
		for round := 0; round < 4; round++ {
			gens := g.PredGens(preds)
			var gone [][3]core.Value
			for i := 0; i < 3; i++ {
				row := g.Triples.RowAt(rng.Intn(g.Edges()))
				e := [3]core.Value{row[si], row[pi], row[ti]}
				if g.DeleteV(e[0], e[1], e[2]) {
					gone = append(gone, e)
				}
			}
			for i := 0; i < 3; i++ {
				g.AddV(nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], nodes[rng.Intn(len(nodes))])
			}
			if len(gone) > 0 && rng.Intn(2) == 0 {
				e := gone[0]
				g.AddV(e[0], e[1], e[2])
			}
			added, removed, _, ok := g.DeltasSince(preds, gens)
			if !ok {
				t.Fatal("change log lost the round's window")
			}
			for i, fp := range terms {
				old := rels[i]
				st, err := refreshSubResult(context.Background(), g, fp, old, added, removed)
				if err != nil {
					t.Fatal(err)
				}
				want := eval(fp)
				where := fmt.Sprintf("seed %d round %d term %d", seed, round, i)
				if !core.SameRows(st.rel, want) {
					t.Fatalf("%s: maintained %d rows, from scratch %d", where, st.rel.Len(), want.Len())
				}
				if gained := want.Diff(old); st.added != int64(gained.Len()) {
					t.Fatalf("%s: added=%d, want |new \\ old| = %d", where, st.added, gained.Len())
				}
				if lost := old.Diff(want); st.retracted-st.rederived != int64(lost.Len()) {
					t.Fatalf("%s: retracted=%d rederived=%d, want a net removal of |old \\ new| = %d",
						where, st.retracted, st.rederived, lost.Len())
				}
				retracted = retracted || st.retracted > 0
				rels[i] = st.rel
			}
		}
		if retracted {
			retracting++
		}
	}
	if retracting < 2 {
		t.Fatalf("only %d seeds over-deleted rows; the DRed phases went unexercised", retracting)
	}
}
