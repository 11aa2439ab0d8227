package pregel

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
)

// This file implements the two non-regular (class C7) vertex programs the
// paper evaluates on GraphX in Fig. 11. Neither query is a regular path
// query, so they cannot reuse the NFA machinery; they are written the way a
// GraphX user would write them, and they exhibit the same failure modes
// the paper reports (message explosion → simulated out-of-memory).

// SGResult is the outcome of a same-generation run.
type SGResult struct {
	Pairs      *core.Relation // (src,trg) same-generation pairs
	Supersteps int
	Messages   int64
}

// RunSameGeneration computes the pairs of vertices at the same depth below
// a common ancestor, restricted to edges with the given label. The vertex
// program floods (ancestor, depth) tokens down the edges; two vertices
// holding the same token are in the same generation. The final grouping
// joins tokens across workers with one extra shuffle.
func (g *Graph) RunSameGeneration(label core.Value, opts RPQOptions) (*SGResult, error) {
	s := g.s
	// token rows: (dst, origin, depth)
	cols := []string{"depth", "dst", "origin"}
	type sgState struct {
		visited map[[2]core.Value]map[core.Value]bool // (v, origin) → depths
		tokens  *core.Relation                        // (origin, depth, v) accumulated
		outbox  *core.Relation
	}
	states := make([]*sgState, len(g.adj)) // by worker rank
	var total atomic.Int64
	err := s.RunPhase(func(ctx *cluster.Ctx) error {
		adj := g.adj[ctx.WorkerID()]
		st := &sgState{
			visited: map[[2]core.Value]map[core.Value]bool{},
			tokens:  core.NewRelation("origin", "depth", "v"),
			outbox:  core.NewRelation(cols...),
		}
		states[ctx.WorkerID()] = st
		// Seed: every vertex is an ancestor at depth 0 of its children.
		for _, v := range adj.vertices {
			for _, e := range adj.out[v] {
				if e.label == label {
					st.outbox.AddTuple(cols, []core.Value{1, e.to, v})
				}
			}
		}
		total.Add(int64(st.outbox.Len()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &SGResult{}
	for {
		if opts.MaxMessages > 0 && total.Load() > opts.MaxMessages {
			return nil, fmt.Errorf("%w: %d messages", ErrMessageBudget, total.Load())
		}
		var pending atomic.Int64
		err := s.RunPhase(func(ctx *cluster.Ctx) error {
			adj, st := g.adj[ctx.WorkerID()], states[ctx.WorkerID()]
			inbox, err := ctx.Exchange(st.outbox, []string{"dst"})
			if err != nil {
				return err
			}
			st.outbox = core.NewRelation(cols...)
			di := core.ColIndex(inbox.Cols(), "dst")
			oi := core.ColIndex(inbox.Cols(), "origin")
			pi := core.ColIndex(inbox.Cols(), "depth")
			for ri := 0; ri < inbox.Len(); ri++ {
				row := inbox.RowAt(ri)
				v, origin, depth := row[di], row[oi], row[pi]
				key := [2]core.Value{v, origin}
				seen := st.visited[key]
				if seen == nil {
					seen = map[core.Value]bool{}
					st.visited[key] = seen
				}
				if seen[depth] {
					continue
				}
				seen[depth] = true
				st.tokens.AddTuple([]string{"origin", "depth", "v"}, []core.Value{origin, depth, v})
				for _, e := range adj.out[v] {
					if e.label == label {
						st.outbox.AddTuple(cols, []core.Value{depth + 1, e.to, origin})
					}
				}
			}
			pending.Add(int64(st.outbox.Len()))
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Supersteps++
		total.Add(pending.Load())
		if pending.Load() == 0 {
			break
		}
		if opts.MaxSupersteps > 0 && res.Supersteps >= opts.MaxSupersteps {
			return nil, fmt.Errorf("pregel: same-generation did not converge after %d supersteps", res.Supersteps)
		}
	}
	res.Messages = total.Load()
	// Group tokens by (origin, depth) with one shuffle and emit pairs.
	pairDS := s.NewDataset(core.ColSrc, core.ColTrg)
	defer s.Free(pairDS)
	err = s.RunPhase(func(ctx *cluster.Ctx) error {
		grouped, err := ctx.Exchange(states[ctx.WorkerID()].tokens, []string{"origin", "depth"})
		if err != nil {
			return err
		}
		oi := core.ColIndex(grouped.Cols(), "origin")
		pi := core.ColIndex(grouped.Cols(), "depth")
		vi := core.ColIndex(grouped.Cols(), "v")
		byKey := map[[2]core.Value][]core.Value{}
		for ri := 0; ri < grouped.Len(); ri++ {
			row := grouped.RowAt(ri)
			k := [2]core.Value{row[oi], row[pi]}
			byKey[k] = append(byKey[k], row[vi])
		}
		pairs := core.NewRelation(core.ColSrc, core.ColTrg)
		for _, vs := range byKey {
			for _, a := range vs {
				for _, b := range vs {
					pairs.Add([]core.Value{a, b})
				}
			}
		}
		ctx.SetPartition(pairDS, pairs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pairs, err := s.Collect(pairDS)
	if err != nil {
		return nil, err
	}
	res.Pairs = pairs
	return res, nil
}

// RunAnBn computes the pairs connected by a path of n edges labeled a
// followed by exactly n edges labeled b (n ≥ 1) — the paper's anbn query.
// Tokens carry (origin, remainingA, phase); on a cyclic a-subgraph the
// counter grows without bound, so runs on such graphs exhaust the message
// budget exactly like GraphX runs out of memory in the paper.
func (g *Graph) RunAnBn(labelA, labelB core.Value, opts RPQOptions) (*RPQResult, error) {
	s := g.s
	// message rows: (balance, dst, origin, phase) — phase 0 = reading a's,
	// phase 1 = reading b's; balance = #a − #b so far.
	cols := []string{"balance", "dst", "origin", "phase"}
	type abState struct {
		visited map[[4]core.Value]bool
		results *core.Relation
		outbox  *core.Relation
	}
	states := make([]*abState, len(g.adj)) // by worker rank
	var total atomic.Int64
	err := s.RunPhase(func(ctx *cluster.Ctx) error {
		adj := g.adj[ctx.WorkerID()]
		st := &abState{
			visited: map[[4]core.Value]bool{},
			results: core.NewRelation(core.ColSrc, core.ColTrg),
			outbox:  core.NewRelation(cols...),
		}
		states[ctx.WorkerID()] = st
		for _, v := range adj.vertices {
			for _, e := range adj.out[v] {
				if e.label == labelA {
					st.outbox.AddTuple(cols, []core.Value{1, e.to, v, 0})
				}
			}
		}
		total.Add(int64(st.outbox.Len()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &RPQResult{}
	for {
		if opts.MaxMessages > 0 && total.Load() > opts.MaxMessages {
			return nil, fmt.Errorf("%w: %d messages", ErrMessageBudget, total.Load())
		}
		var pending atomic.Int64
		err := s.RunPhase(func(ctx *cluster.Ctx) error {
			adj, st := g.adj[ctx.WorkerID()], states[ctx.WorkerID()]
			inbox, err := ctx.Exchange(st.outbox, []string{"dst"})
			if err != nil {
				return err
			}
			st.outbox = core.NewRelation(cols...)
			bi := core.ColIndex(inbox.Cols(), "balance")
			di := core.ColIndex(inbox.Cols(), "dst")
			oi := core.ColIndex(inbox.Cols(), "origin")
			phi := core.ColIndex(inbox.Cols(), "phase")
			for ri := 0; ri < inbox.Len(); ri++ {
				row := inbox.RowAt(ri)
				balance, v, origin, phase := row[bi], row[di], row[oi], row[phi]
				k := [4]core.Value{balance, v, origin, phase}
				if st.visited[k] {
					continue
				}
				st.visited[k] = true
				if phase == 1 && balance == 0 {
					st.results.Add([]core.Value{origin, v})
					continue // balanced: token consumed
				}
				if phase == 0 {
					for _, e := range adj.out[v] {
						if e.label == labelA {
							st.outbox.AddTuple(cols, []core.Value{balance + 1, e.to, origin, 0})
						}
					}
				}
				// Switch to (or continue) the b-phase.
				if balance > 0 {
					for _, e := range adj.out[v] {
						if e.label == labelB {
							st.outbox.AddTuple(cols, []core.Value{balance - 1, e.to, origin, 1})
						}
					}
				}
			}
			pending.Add(int64(st.outbox.Len()))
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Supersteps++
		total.Add(pending.Load())
		if pending.Load() == 0 {
			break
		}
		if opts.MaxSupersteps > 0 && res.Supersteps >= opts.MaxSupersteps {
			return nil, fmt.Errorf("pregel: anbn did not converge after %d supersteps", res.Supersteps)
		}
	}
	res.Messages = total.Load()
	pairs, err := g.gather(func(rank int) *core.Relation { return states[rank].results })
	if err != nil {
		return nil, err
	}
	res.Pairs = pairs
	return res, nil
}
