// Package pregel is a vertex-centric BSP graph engine on the cluster
// substrate — the stand-in for GraphX/Pregel, the paper's second baseline
// (§V-C). Vertices are hash-partitioned across workers; computation
// proceeds in supersteps; messages produced in superstep k are shuffled to
// their target vertex's worker at the barrier and consumed in superstep
// k+1; the run halts when no messages remain.
//
// Regular path queries are evaluated the way the paper describes for
// GraphX: the RPQ is compiled to an NFA (internal/rpq) and each vertex
// tracks the (origin, automaton-state) pairs that have reached it,
// forwarding them along matching edges. A query anchored at a constant
// subject starts messages from that single vertex (which is why GraphX is
// only competitive when the filter comes first, the paper's Q17
// observation); an unanchored query starts from every vertex, and the
// (origin × state) message volume is what makes the model struggle on
// RPQs with large intermediate results.
package pregel

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rpq"
)

// ErrMessageBudget is returned when a run exceeds its message budget — the
// analogue of the out-of-memory crashes the paper reports for GraphX.
var ErrMessageBudget = errors.New("pregel: message budget exceeded (simulated out-of-memory)")

type edge struct {
	label core.Value
	to    core.Value
}

// adjacency is the per-worker graph fragment: the out- and in-edges of the
// vertices this worker owns.
type adjacency struct {
	out      map[core.Value][]edge
	in       map[core.Value][]edge
	vertices []core.Value
}

// Graph is a vertex-partitioned labeled graph resident on the workers of
// one session. Its runs are phases of that session, so cancelling the
// session's context stops a run at its next superstep.
type Graph struct {
	s        *cluster.Session
	adj      []*adjacency // by worker rank
	vertices int
}

// LoadGraph distributes a triple relation (src, pred, trg) onto the
// session's workers: every vertex is owned by hash(vertex) mod workers;
// its worker stores both its outgoing and incoming labeled edges.
func LoadGraph(s *cluster.Session, triples *core.Relation) (*Graph, error) {
	g := &Graph{s: s, adj: make([]*adjacency, s.NumWorkers())}
	bysrc, err := s.Parallelize(triples, []string{core.ColSrc})
	if err != nil {
		return nil, err
	}
	defer s.Free(bysrc)
	bytrg, err := s.Parallelize(triples, []string{core.ColTrg})
	if err != nil {
		return nil, err
	}
	defer s.Free(bytrg)
	var vcount atomic.Int64
	err = s.RunPhase(func(ctx *cluster.Ctx) error {
		adj := &adjacency{out: map[core.Value][]edge{}, in: map[core.Value][]edge{}}
		outPart := ctx.Partition(bysrc)
		si := core.ColIndex(outPart.Cols(), core.ColSrc)
		pi := core.ColIndex(outPart.Cols(), core.ColPred)
		ti := core.ColIndex(outPart.Cols(), core.ColTrg)
		for i := 0; i < outPart.Len(); i++ {
			row := outPart.RowAt(i)
			adj.out[row[si]] = append(adj.out[row[si]], edge{label: row[pi], to: row[ti]})
		}
		inPart := ctx.Partition(bytrg)
		for i := 0; i < inPart.Len(); i++ {
			row := inPart.RowAt(i)
			adj.in[row[ti]] = append(adj.in[row[ti]], edge{label: row[pi], to: row[si]})
		}
		seen := map[core.Value]bool{}
		n := uint64(ctx.NumWorkers())
		me := ctx.WorkerID()
		addVertex := func(v core.Value) {
			if owner(v, n) == me && !seen[v] {
				seen[v] = true
				adj.vertices = append(adj.vertices, v)
			}
		}
		for i := 0; i < outPart.Len(); i++ {
			addVertex(outPart.RowAt(i)[si])
		}
		for i := 0; i < inPart.Len(); i++ {
			addVertex(inPart.RowAt(i)[ti])
		}
		vcount.Add(int64(len(adj.vertices)))
		g.adj[me] = adj
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.vertices = int(vcount.Load())
	return g, nil
}

// owner must agree with the stable-column hash partitioner of the cluster
// (Parallelize hashes single columns with core.HashValuesAt).
func owner(v core.Value, n uint64) int {
	return core.Owner(core.HashValuesAt([]core.Value{v}, []int{0}), int(n))
}

// Vertices returns the number of distinct vertices loaded.
func (g *Graph) Vertices() int { return g.vertices }

// RPQOptions configures an RPQ run.
type RPQOptions struct {
	// StartNodes anchors the query at the given origins; nil starts from
	// every vertex (the unanchored ?x expr ?y form).
	StartNodes []core.Value
	// MaxSupersteps bounds the run (0 = no bound beyond convergence).
	MaxSupersteps int
	// MaxMessages aborts the run with ErrMessageBudget once the total
	// message count passes the budget (0 = unlimited) — the simulated
	// memory capacity of the cluster.
	MaxMessages int64
}

// RPQResult is the outcome of an RPQ evaluation.
type RPQResult struct {
	// Pairs holds (src, trg) rows: origin nodes and the nodes reached by a
	// path matching the expression.
	Pairs      *core.Relation
	Supersteps int
	Messages   int64
}

// message row schema: (dst, origin, state) — sorted column order.
var msgCols = []string{"dst", "origin", "state"}

type rpqState struct {
	visited map[[2]core.Value]map[int]bool // (vertex, origin) → states seen
	results *core.Relation
	outbox  *core.Relation
}

// RunRPQ evaluates the automaton over the distributed graph.
func (g *Graph) RunRPQ(nfa *rpq.NFA, opts RPQOptions) (*RPQResult, error) {
	s := g.s
	n := uint64(s.NumWorkers())
	states := make([]*rpqState, len(g.adj)) // by worker rank

	var totalMsgs atomic.Int64
	startSet := map[core.Value]bool{}
	for _, v := range opts.StartNodes {
		startSet[v] = true
	}

	// Superstep 0: seed (origin, start-state closure) at the origins and
	// emit the first messages.
	err := s.RunPhase(func(ctx *cluster.Ctx) error {
		adj := g.adj[ctx.WorkerID()]
		st := &rpqState{
			visited: map[[2]core.Value]map[int]bool{},
			results: core.NewRelation(core.ColSrc, core.ColTrg),
			outbox:  core.NewRelation(msgCols...),
		}
		states[ctx.WorkerID()] = st
		startStates := nfa.EpsClosure(map[int]bool{nfa.Start: true})
		for _, v := range adj.vertices {
			if opts.StartNodes != nil && !startSet[v] {
				continue
			}
			for s := range startStates {
				st.deliver(nfa, adj, v, v, s)
			}
		}
		totalMsgs.Add(int64(st.outbox.Len()))
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &RPQResult{}
	for {
		if opts.MaxMessages > 0 && totalMsgs.Load() > opts.MaxMessages {
			return nil, fmt.Errorf("%w: %d messages", ErrMessageBudget, totalMsgs.Load())
		}
		var pending atomic.Int64
		err := s.RunPhase(func(ctx *cluster.Ctx) error {
			adj, st := g.adj[ctx.WorkerID()], states[ctx.WorkerID()]
			inbox, err := ctx.Exchange(st.outbox, []string{"dst"})
			if err != nil {
				return err
			}
			st.outbox = core.NewRelation(msgCols...)
			di := core.ColIndex(inbox.Cols(), "dst")
			oi := core.ColIndex(inbox.Cols(), "origin")
			si := core.ColIndex(inbox.Cols(), "state")
			for ri := 0; ri < inbox.Len(); ri++ {
				row := inbox.RowAt(ri)
				if owner(row[di], n) != ctx.WorkerID() {
					return fmt.Errorf("pregel: message for %d delivered to worker %d", row[di], ctx.WorkerID())
				}
				st.deliver(nfa, adj, row[di], row[oi], int(row[si]))
			}
			pending.Add(int64(st.outbox.Len()))
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Supersteps++
		totalMsgs.Add(pending.Load())
		if pending.Load() == 0 {
			break
		}
		if opts.MaxSupersteps > 0 && res.Supersteps >= opts.MaxSupersteps {
			return nil, fmt.Errorf("pregel: no convergence after %d supersteps", res.Supersteps)
		}
	}
	res.Messages = totalMsgs.Load()

	// Gather the per-worker result fragments.
	pairs, err := g.gather(func(rank int) *core.Relation { return states[rank].results })
	if err != nil {
		return nil, err
	}
	res.Pairs = pairs
	return res, nil
}

// gather collects the per-worker result fragments part(rank) on the
// driver.
func (g *Graph) gather(part func(rank int) *core.Relation) (*core.Relation, error) {
	ds := g.s.NewDataset(core.ColSrc, core.ColTrg)
	defer g.s.Free(ds)
	if err := g.s.RunPhase(func(ctx *cluster.Ctx) error {
		ctx.SetPartition(ds, part(ctx.WorkerID()))
		return nil
	}); err != nil {
		return nil, err
	}
	return g.s.Collect(ds)
}

// deliver processes one (origin, state) arrival at vertex v: expand the
// ε-closure, record acceptance, and emit messages along matching edges.
func (st *rpqState) deliver(nfa *rpq.NFA, adj *adjacency, v, origin core.Value, state int) {
	states := nfa.EpsClosure(map[int]bool{state: true})
	key := [2]core.Value{v, origin}
	seen := st.visited[key]
	if seen == nil {
		seen = map[int]bool{}
		st.visited[key] = seen
	}
	for s := range states {
		if seen[s] {
			continue
		}
		seen[s] = true
		if s == nfa.Accept {
			st.results.Add([]core.Value{origin, v})
		}
		for _, tr := range nfa.Trans[s] {
			var nbrs []edge
			if tr.Inverse {
				nbrs = adj.in[v]
			} else {
				nbrs = adj.out[v]
			}
			for _, e := range nbrs {
				if e.label != tr.Label {
					continue
				}
				st.outbox.Add([]core.Value{e.to, origin, core.Value(tr.To)})
			}
		}
	}
}
