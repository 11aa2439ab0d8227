package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	distmura "repro"
)

// mutation is one AddTriple or DeleteTriple of the single-label graph.
type mutation struct {
	src, trg string
	del      bool
}

// mutator derives live-mutate's batches from the seed. It tracks the
// graph's edges itself so that every delete names an edge that exists and
// every insert one that does not, whatever the engine does.
type mutator struct {
	rng   *rand.Rand
	nodes int
	edges []edge
	has   map[edge]bool
	cycle int
}

func newMutator(edges []edge, nodes int, seed int64) *mutator {
	m := &mutator{rng: rand.New(rand.NewSource(seed)), nodes: nodes, has: map[edge]bool{}}
	m.edges = append(m.edges, edges...)
	for _, e := range edges {
		m.has[e] = true
	}
	return m
}

// next returns the batch of cycle c = 1, 2, …: 7 seeded inserts, 7 seeded
// deletes, then delete (n0, w_{c-1}) and insert (n0, w_c). The watched
// query's result therefore changes in every cycle, and because (n0, w_c)
// is written last, a Watch delivery that shows w_c has seen the whole
// batch.
func (m *mutator) next() []mutation {
	m.cycle++
	var batch []mutation
	for len(batch) < 7 {
		e := edge{fmt.Sprintf("n%d", m.rng.Intn(m.nodes)), fmt.Sprintf("n%d", m.rng.Intn(m.nodes))}
		if e.src == e.trg || m.has[e] {
			continue
		}
		m.has[e] = true
		m.edges = append(m.edges, e)
		batch = append(batch, mutation{src: e.src, trg: e.trg})
	}
	for len(batch) < 14 {
		k := m.rng.Intn(len(m.edges))
		e := m.edges[k]
		m.edges[k] = m.edges[len(m.edges)-1]
		m.edges = m.edges[:len(m.edges)-1]
		delete(m.has, e)
		batch = append(batch, mutation{src: e.src, trg: e.trg, del: true})
	}
	batch = append(batch, mutation{src: "n0", trg: m.marker(m.cycle - 1), del: true})
	return append(batch, mutation{src: "n0", trg: m.marker(m.cycle)})
}

func (m *mutator) marker(cycle int) string { return fmt.Sprintf("w%d", cycle) }

// arrival is a WatchDelta stamped with the time it left the subscription.
type arrival struct {
	delta distmura.WatchDelta
	at    time.Time
}

// mutateRunner is live-mutate: one engine with both caches on, three
// standing queries and a Watch on the first, plus a cache-less engine on
// the same graph that every cycle is checked against outside the timed
// span.
type mutateRunner struct {
	eng     *distmura.Engine
	ref     *distmura.Engine
	mut     *mutator
	watch   *distmura.Watch
	arrived chan arrival
	watched map[string]uint64 // rendered row of the watched result → its hash
}

func setupMutate(ctx context.Context, w *workload, sc scale, seed int64) (*mutateRunner, error) {
	g := w.graph(sc, seed)
	edges, _ := triples(g)
	eng, err := distmura.Open(w.options(sc, ""))
	if err != nil {
		return nil, err
	}
	eng.UseGraph(g)
	// Seed the marker edge so that the first cycle's delete finds it.
	mut := newMutator(edges, sc.mutateN, seed)
	eng.AddTriple("n0", "e", mut.marker(0))
	ref, err := distmura.Open(distmura.Options{Workers: 4, PlanCacheSize: -1, DisableSubResultCache: true})
	if err != nil {
		eng.Close()
		return nil, err
	}
	ref.UseGraph(g)
	r := &mutateRunner{eng: eng, ref: ref, mut: mut, watched: map[string]uint64{}}
	for _, c := range mutateQueries {
		if _, _, _, err := queryCall(ctx, eng, c, nil, 0); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up %s: %w", c.id, err)
		}
	}
	if r.watch, err = eng.Watch(ctx, mutateQueries[0].text); err != nil {
		r.close()
		return nil, err
	}
	// Stamp deliveries as they arrive: the op reads them only after its
	// queries, and the delivery latency must not include that wait.
	r.arrived = make(chan arrival, 64) // a cycle yields at most one delivery per mutation (16)
	go func(in <-chan distmura.WatchDelta, out chan<- arrival) {
		defer close(out)
		for d := range in {
			out <- arrival{d, time.Now()}
		}
	}(r.watch.C, r.arrived)
	if _, err := r.awaitMarker(mut.marker(0), &opResult{}); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *mutateRunner) engine() *distmura.Engine { return r.eng }

func (r *mutateRunner) close() {
	if r.watch != nil {
		r.watch.Close()
		for range r.arrived {
		}
	}
	for _, e := range []*distmura.Engine{r.eng, r.ref} {
		if err := e.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: closing engine:", err)
		}
	}
}

// awaitMarker applies Watch deliveries to the bench's copy of the watched
// result until the row marker is in it, and returns when that delivery
// arrived.
func (r *mutateRunner) awaitMarker(marker string, res *opResult) (time.Time, error) {
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for {
		select {
		case a, ok := <-r.arrived:
			if !ok {
				return time.Time{}, fmt.Errorf("watch ended: %v", r.watch.Err())
			}
			res.watchDeliveries++
			if a.delta.Stats.Plan == "maintained" {
				res.watchMaintained++
			}
			for _, row := range a.delta.Removed {
				delete(r.watched, row[0])
			}
			for _, row := range a.delta.Added {
				r.watched[row[0]] = rowHash(row)
			}
			if _, ok := r.watched[marker]; ok {
				return a.at, nil
			}
		case <-timeout.C:
			return time.Time{}, fmt.Errorf("no watch delivery showing %s within 30s", marker)
		}
	}
}

func (r *mutateRunner) runOp(ctx context.Context, tr *tracer, opID int, _ *rand.Rand) opResult {
	var res opResult
	batch := r.mut.next()
	got := make([]result, len(mutateQueries))

	t0 := time.Now()
	for _, m := range batch {
		if m.del {
			if !r.eng.DeleteTriple(m.src, "e", m.trg) {
				res.failed = fmt.Sprintf("delete of (%s, e, %s) found no edge", m.src, m.trg)
			}
		} else {
			r.eng.AddTriple(m.src, "e", m.trg)
		}
	}
	t1 := time.Now()
	tr.add(opID, "graphgen.mutate", "op", t0, t1, map[string]float64{"edges": float64(len(batch))})
	for i, c := range mutateQueries {
		g, st, _, err := queryCall(ctx, r.eng, c, tr, opID)
		if err != nil {
			res.failed = fmt.Sprintf("%s: %v", c.id, err)
		}
		got[i] = g
		res.stats = append(res.stats, st)
	}
	at, err := r.awaitMarker(r.mut.marker(r.mut.cycle), &res)
	if err != nil {
		res.failed = err.Error()
		at = time.Now()
	}
	t2 := time.Now()
	tr.add(opID, "repro.watch_delivery", "graphgen.mutate", t1, at, nil)
	tr.add(opID, "op", "", t0, t2, nil)
	res.dur = t2.Sub(t0)

	// Untimed: every result of the cycle against the cache-less engine.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	for i, c := range mutateQueries {
		want, _, _, err := queryCall(ctx, r.ref, c, nil, 0)
		switch {
		case err != nil:
			res.failed = fmt.Sprintf("reference %s: %v", c.id, err)
		case got[i] != want:
			res.failed = fmt.Sprintf("cycle %d %s: got %+v, want %+v", r.mut.cycle, c.id, got[i], want)
		}
	}
	var sum uint64
	for _, h := range r.watched {
		sum += h
	}
	if w := makeResult(len(r.watched), sum); res.failed == "" && w != got[0] {
		res.failed = fmt.Sprintf("cycle %d: watched result %+v, queried %+v", r.mut.cycle, w, got[0])
	}
	runtime.ReadMemStats(&ms)
	res.pause = time.Since(t2)
	res.pauseAlloc = ms.TotalAlloc - alloc0
	return res
}
