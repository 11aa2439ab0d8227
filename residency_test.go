package distmura

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graphgen"
)

// residencyOptions runs every fixpoint (both caches off) under Auto, so
// each query broadcasts φ's relations through the physical layer.
func residencyOptions() Options {
	return Options{Workers: 4, DisableSubResultCache: true, PlanCacheSize: -1,
		MaxQueryRetries: 3, RetryBackoff: time.Millisecond}
}

// residencyQuery is a Ps_plw closure whose only φ relation is G.
const residencyQuery = "?x,?y <- ?x e+ ?y"

// encodingBytes is the wire size of one broadcast of rel to one worker.
func encodingBytes(t *testing.T, rel *core.Relation) int64 {
	t.Helper()
	c, err := cluster.New(cluster.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.NewSession(nil)
	defer s.Close()
	b, err := s.BroadcastRel(rel)
	if err != nil {
		t.Fatal(err)
	}
	s.FreeBroadcast(b)
	return s.Metrics().Snapshot().BroadcastBytes
}

// shippedG returns the bytes the queries of results sent beyond what a
// run finding G resident on the workers sends (resident): the bytes of
// their broadcasts of G. Everything else a run of residencyQuery sends —
// its seed's scatter, its result's collect — is the same at one graph
// state, so any difference is the broadcast.
func shippedG(resident int64, results ...*Result) int64 {
	var sent int64
	for _, r := range results {
		sent += r.Stats.NetworkBytes - resident
	}
	return sent
}

// checkBroadcastResidency asserts what the workers may hold once no query
// is running: no per-fixpoint copy, no superseded copy, and at most one
// copy per bound name per worker, sent under the current epoch.
func checkBroadcastResidency(t *testing.T, e *Engine) {
	t.Helper()
	c := e.Cluster()
	seen := map[string]bool{}
	for _, bc := range c.BroadcastCopies() {
		key := fmt.Sprintf("worker %d, name %q", bc.Worker, bc.Name)
		switch {
		case bc.Name == "":
			t.Errorf("%s: per-fixpoint broadcast %d outlived its fixpoint", key, bc.ID)
		case bc.Retired:
			t.Errorf("%s: superseded broadcast %d still held", key, bc.ID)
		case bc.Epoch != c.Epoch():
			t.Errorf("%s: copy from epoch %d, the cluster is at %d", key, bc.Epoch, c.Epoch())
		case seen[key]:
			t.Errorf("%s: more than one resident copy", key)
		}
		seen[key] = true
	}
}

// TestResidentGraphShippedOncePerState is the traffic bound of the
// resident broadcast: the same Ps_plw query run K times at one graph
// state ships G once per worker in total, and a mutation makes exactly
// the next query ship it again.
func TestResidentGraphShippedOncePerState(t *testing.T) {
	e := openTest(t, residencyOptions())
	faultTestGraph(e)
	workers := int64(e.Cluster().NumWorkers())
	enc := encodingBytes(t, e.Graph().Triples)

	const runs = 5
	results := []*Result{collect(t, e, residencyQuery)}
	want := results[0]
	if want.Stats.Plan != "[Ps_plw]" {
		t.Fatalf("plan %s, want [Ps_plw]", want.Stats.Plan)
	}
	for i := 1; i < runs; i++ {
		got := collect(t, e, residencyQuery)
		if canonical(got) != canonical(want) {
			t.Fatalf("run %d: %d rows, first run %d", i, len(got.Rows), len(want.Rows))
		}
		results = append(results, got)
	}
	// The last run finds G resident; so must every run after the first.
	resident := results[runs-1].Stats.NetworkBytes
	for i, r := range results[1:] {
		if r.Stats.NetworkBytes != resident {
			t.Fatalf("run %d sent %d B, run %d %d B: G was shipped again", i+1, r.Stats.NetworkBytes, runs-1, resident)
		}
	}
	if sent, bound := shippedG(resident, results...), workers*enc; sent == 0 || sent > bound {
		t.Fatalf("%d runs broadcast %d B, want one %d B encoding of G per worker, %d B", runs, sent, enc, bound)
	}
	checkBroadcastResidency(t, e)

	e.AddTriple("n40", "e", "fresh")
	enc = encodingBytes(t, e.Graph().Triples)
	got := collect(t, e, residencyQuery)
	again := collect(t, e, residencyQuery)
	if sent := shippedG(again.Stats.NetworkBytes, got); sent == 0 || sent > workers*enc {
		t.Fatalf("query after AddTriple broadcast %d B, want one send of %d B per worker", sent, enc)
	}
	if !hasRow(got, "n0", "fresh") {
		t.Fatal("query after AddTriple misses the new row (n0, fresh)")
	}
	checkBroadcastResidency(t, e)
}

// hasRow reports whether res holds the row (x, y).
func hasRow(res *Result, x, y string) bool {
	for _, r := range res.Rows {
		if r[0] == x && r[1] == y {
			return true
		}
	}
	return false
}

// TestResidentBroadcastMembership: a resident copy never outlives its
// membership epoch. After a recovery, automatic or explicit, and after a
// revival, queries stay correct and every copy the workers hold was sent
// under the current epoch.
func TestResidentBroadcastMembership(t *testing.T) {
	e := openTest(t, residencyOptions())
	faultTestGraph(e)
	c := e.Cluster()
	want := collect(t, e, residencyQuery)
	check := func(stage string, wantWorkers int) {
		t.Helper()
		if got := collect(t, e, residencyQuery); canonical(got) != canonical(want) {
			t.Fatalf("%s: %d rows, want %d", stage, len(got.Rows), len(want.Rows))
		}
		checkBroadcastResidency(t, e)
		holders := map[int]bool{}
		for _, bc := range c.BroadcastCopies() {
			holders[bc.Worker] = true
		}
		if len(holders) != wantWorkers {
			t.Fatalf("%s: %d workers hold G, want %d", stage, len(holders), wantWorkers)
		}
	}

	c.KillWorker(1)
	if removed, _ := c.Recover(); len(removed) != 1 {
		t.Fatalf("recover removed %v", removed)
	}
	check("after KillWorker+Recover", 3)

	// A kill the engine discovers itself: the query retries on the
	// recovered membership.
	c.KillWorker(2)
	got := collect(t, e, residencyQuery)
	if got.Stats.RetryCount != 1 || canonical(got) != canonical(want) {
		t.Fatalf("query across a kill: %d retries, %d rows (want 1, %d)", got.Stats.RetryCount, len(got.Rows), len(want.Rows))
	}
	check("after an automatic recovery", 2)

	if !c.ReviveWorker(1) || !c.ReviveWorker(2) {
		t.Fatal("revive failed")
	}
	check("after ReviveWorker", 4)
}

// TestResidentBroadcastUseGraph: replacing the graph drops the workers'
// copy of the old one, and the next query ships the new one.
func TestResidentBroadcastUseGraph(t *testing.T) {
	e := openTest(t, residencyOptions())
	faultTestGraph(e)
	collect(t, e, residencyQuery)
	old := e.Graph().Triples

	g := graphgen.NewGraph("db")
	g.Add("a", "e", "b")
	g.Add("b", "e", "c")
	e.UseGraph(g)
	for _, bc := range e.Cluster().BroadcastCopies() {
		if bc.Rel == old {
			t.Fatalf("worker %d still holds the old graph after UseGraph", bc.Worker)
		}
	}
	if got := collect(t, e, residencyQuery); len(got.Rows) != 3 {
		t.Fatalf("query on the new graph: %d rows, want 3", len(got.Rows))
	}
	for _, bc := range e.Cluster().BroadcastCopies() {
		if bc.Rel != g.Triples {
			t.Fatalf("worker %d holds a copy of %p, want the new graph", bc.Worker, bc.Rel)
		}
	}
	checkBroadcastResidency(t, e)
}

// TestResidentBroadcastSharedByConcurrentQueries: eight queries started
// together on a fresh engine share one send of G.
func TestResidentBroadcastSharedByConcurrentQueries(t *testing.T) {
	e := openTest(t, residencyOptions())
	faultTestGraph(e)
	enc := encodingBytes(t, e.Graph().Triples)
	workers := int64(e.Cluster().NumWorkers())

	const queries = 8
	results := make([]*Result, queries)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.QueryCollect(context.Background(), residencyQuery)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if canonical(results[i]) != canonical(results[0]) {
			t.Fatalf("query %d: %d rows, query 0 %d", i, len(results[i].Rows), len(results[0].Rows))
		}
	}
	resident := collect(t, e, residencyQuery).Stats.NetworkBytes
	if sent, bound := shippedG(resident, results...), workers*enc; sent == 0 || sent > bound {
		t.Fatalf("%d concurrent queries broadcast %d B, bound %d B (one encoding of G per worker)", queries, sent, bound)
	}
	checkBroadcastResidency(t, e)
}
