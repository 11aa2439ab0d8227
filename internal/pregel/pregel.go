// Package pregel is a vertex-centric BSP graph engine on the cluster
// substrate — the stand-in for GraphX/Pregel, the paper's second baseline
// (§V-C). Vertices are hash-partitioned across workers; computation
// proceeds in supersteps; messages produced in superstep k are shuffled to
// their target vertex's worker at the barrier and consumed in superstep
// k+1; the run halts when no messages remain.
//
// One superstep loop (Graph.run) drives every query. It owns the per-rank
// outboxes, the message budget, the exchange by destination vertex with
// its ownership check, the superstep and message counts, the convergence
// test and the final gather. A query is a vertex program: each worker's
// copy seeds its outbox, receives one message at a time, and returns its
// (src, trg) share of the answer.
//
// Regular path queries are evaluated the way the paper describes for
// GraphX: the RPQ is compiled to an NFA (internal/rpq) and each vertex
// tracks the (origin, automaton-state) pairs that have reached it,
// forwarding them along matching edges. A query anchored at a constant
// subject starts messages from that single vertex (which is why GraphX is
// only competitive when the filter comes first, the paper's Q17
// observation); an unanchored query starts from every vertex, and the
// (origin × state) message volume is what makes the model struggle on
// RPQs with large intermediate results. The visited set makes an RPQ run
// finite.
//
// The non-regular programs (same-generation and anbn, nonregular.go) carry
// a counter that grows with every step, so on a cycle they never converge.
// The loop ends such a run once it is still sending after 2·|V|
// supersteps, with an error that wraps ErrMessageBudget: the flood would
// exhaust any budget. The bound changes no run that converges. A
// same-generation token's depth equals its superstep and stays below |V|
// unless the token revisits a vertex, and a revisiting token circles for
// ever. An anbn token's a-phase is a simple path, so shorter than |V|, and
// its b-phase is no longer than the balance it built.
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

// Result is the outcome of a run.
type Result struct {
	// Pairs holds the (src, trg) rows of the answer.
	Pairs      *core.Relation
	Supersteps int
	Messages   int64
}

// program is one worker's copy of a vertex program. Its messages are rows
// over the run's columns, in core's sorted column order.
type program struct {
	// seed adds the messages of the worker's vertices before superstep 1.
	seed func(out *core.Relation)
	// receive handles one message delivered to a vertex the worker owns
	// and adds the messages it sends to out.
	receive func(msg []core.Value, out *core.Relation)
	// result returns the worker's (src, trg) share of the answer once the
	// run has converged; it runs in one phase on every worker, so it may
	// exchange.
	result func(ctx *cluster.Ctx) (*core.Relation, error)
}

// run executes one vertex program to convergence. cols is the message
// schema in sorted order and names the receiving vertex "dst"; newProgram
// builds each worker's copy over its graph fragment. The run fails with
// ErrMessageBudget once more than maxMessages have been sent (0 = no
// budget) or when it is still sending after bound supersteps (0 = none).
func (g *Graph) run(cols []string, maxMessages int64, bound int, newProgram func(adj *adjacency) program) (*Result, error) {
	s := g.s
	progs := make([]program, len(g.adj))         // by worker rank
	outbox := make([]*core.Relation, len(g.adj)) // by worker rank
	var sent atomic.Int64
	err := s.RunPhase(func(ctx *cluster.Ctx) error {
		me := ctx.WorkerID()
		progs[me] = newProgram(g.adj[me])
		outbox[me] = core.NewRelation(cols...)
		progs[me].seed(outbox[me])
		sent.Add(int64(outbox[me].Len()))
		return nil
	})
	if err != nil {
		return nil, err
	}

	di := core.ColIndex(cols, "dst")
	n := uint64(len(g.adj))
	res := &Result{}
	for {
		if maxMessages > 0 && sent.Load() > maxMessages {
			return nil, fmt.Errorf("%w: %d messages", ErrMessageBudget, sent.Load())
		}
		if bound > 0 && res.Supersteps >= bound {
			return nil, fmt.Errorf("%w: still sending after %d supersteps on %d vertices",
				ErrMessageBudget, res.Supersteps, g.vertices)
		}
		var pending atomic.Int64
		err := s.RunPhase(func(ctx *cluster.Ctx) error {
			me := ctx.WorkerID()
			inbox, err := ctx.Exchange(outbox[me], []string{"dst"})
			if err != nil {
				return err
			}
			outbox[me] = core.NewRelation(cols...)
			for i := 0; i < inbox.Len(); i++ {
				msg := inbox.RowAt(i)
				if owner(msg[di], n) != me {
					return fmt.Errorf("pregel: message for %d delivered to worker %d", msg[di], me)
				}
				progs[me].receive(msg, outbox[me])
			}
			pending.Add(int64(outbox[me].Len()))
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Supersteps++
		sent.Add(pending.Load())
		if pending.Load() == 0 {
			break
		}
	}
	res.Messages = sent.Load()

	ds := s.NewDataset(core.ColSrc, core.ColTrg)
	defer s.Free(ds)
	if err := s.RunPhase(func(ctx *cluster.Ctx) error {
		part, err := progs[ctx.WorkerID()].result(ctx)
		if err != nil {
			return err
		}
		ctx.SetPartition(ds, part)
		return nil
	}); err != nil {
		return nil, err
	}
	if res.Pairs, err = s.Collect(ds); err != nil {
		return nil, err
	}
	return res, nil
}

// RPQOptions configures an RPQ run.
type RPQOptions struct {
	// StartNodes anchors the query at the given origins; nil starts from
	// every vertex (the unanchored ?x expr ?y form).
	StartNodes []core.Value
	// MaxMessages aborts the run with ErrMessageBudget once the total
	// message count passes the budget (0 = unlimited) — the simulated
	// memory capacity of the cluster.
	MaxMessages int64
}

// rpqCols is the RPQ message schema: an (origin, automaton state) pair
// arriving at dst.
var rpqCols = []string{"dst", "origin", "state"}

// RunRPQ evaluates the automaton over the distributed graph.
func (g *Graph) RunRPQ(nfa *rpq.NFA, opts RPQOptions) (*Result, error) {
	var start map[core.Value]bool // nil = every vertex
	if opts.StartNodes != nil {
		start = map[core.Value]bool{}
		for _, v := range opts.StartNodes {
			start[v] = true
		}
	}
	return g.run(rpqCols, opts.MaxMessages, 0, func(adj *adjacency) program {
		visited := map[[2]core.Value]map[int]bool{} // (vertex, origin) → states seen
		results := core.NewRelation(core.ColSrc, core.ColTrg)
		// deliver processes one (origin, state) arrival at vertex v: expand
		// the ε-closure, record acceptance, and send along matching edges.
		deliver := func(v, origin core.Value, state int, out *core.Relation) {
			key := [2]core.Value{v, origin}
			seen := visited[key]
			if seen == nil {
				seen = map[int]bool{}
				visited[key] = seen
			}
			for s := range nfa.EpsClosure(map[int]bool{state: true}) {
				if seen[s] {
					continue
				}
				seen[s] = true
				if s == nfa.Accept {
					results.Add([]core.Value{origin, v})
				}
				for _, tr := range nfa.Trans[s] {
					nbrs := adj.out[v]
					if tr.Inverse {
						nbrs = adj.in[v]
					}
					for _, e := range nbrs {
						if e.label == tr.Label {
							out.Add([]core.Value{e.to, origin, core.Value(tr.To)})
						}
					}
				}
			}
		}
		return program{
			seed: func(out *core.Relation) {
				startStates := nfa.EpsClosure(map[int]bool{nfa.Start: true})
				for _, v := range adj.vertices {
					if start != nil && !start[v] {
						continue
					}
					for s := range startStates {
						deliver(v, v, s, out)
					}
				}
			},
			receive: func(msg []core.Value, out *core.Relation) {
				deliver(msg[0], msg[1], int(msg[2]), out)
			},
			result: func(*cluster.Ctx) (*core.Relation, error) { return results, nil },
		}
	})
}
