package pregel

import (
	"repro/internal/cluster"
	"repro/internal/core"
)

// This file implements the two non-regular (class C7) vertex programs the
// paper evaluates on GraphX in Fig. 11. Neither query is a regular path
// query, so they cannot reuse the NFA machinery; they are written the way a
// GraphX user would write them, and they exhibit the same failure modes
// the paper reports (message explosion → simulated out-of-memory). Both
// run under the loop's 2·|V| superstep bound (see the package comment).

// sgCols is the same-generation message schema: a token (origin, depth)
// arriving at dst.
var sgCols = []string{"depth", "dst", "origin"}

// RunSameGeneration computes the pairs of vertices at the same depth below
// a common ancestor, restricted to edges with the given label. The vertex
// program floods (ancestor, depth) tokens down the edges; two vertices
// holding the same token are in the same generation. Its result step
// groups the tokens across workers with one extra shuffle. maxMessages is
// the message budget (0 = unlimited).
func (g *Graph) RunSameGeneration(label core.Value, maxMessages int64) (*Result, error) {
	return g.run(sgCols, maxMessages, 2*g.vertices, func(adj *adjacency) program {
		tokens := core.NewRelation("depth", "origin", "v") // every token held
		send := func(v, origin, depth core.Value, out *core.Relation) {
			for _, e := range adj.out[v] {
				if e.label == label {
					out.Add([]core.Value{depth, e.to, origin})
				}
			}
		}
		return program{
			// Every vertex is an ancestor at depth 0 of its children.
			seed: func(out *core.Relation) {
				for _, v := range adj.vertices {
					send(v, v, 1, out)
				}
			},
			receive: func(msg []core.Value, out *core.Relation) {
				depth, v, origin := msg[0], msg[1], msg[2]
				if tokens.Add([]core.Value{depth, origin, v}) {
					send(v, origin, depth+1, out)
				}
			},
			result: func(ctx *cluster.Ctx) (*core.Relation, error) {
				grouped, err := ctx.Exchange(tokens, []string{"origin", "depth"})
				if err != nil {
					return nil, err
				}
				byToken := map[[2]core.Value][]core.Value{}
				for i := 0; i < grouped.Len(); i++ {
					row := grouped.RowAt(i)
					k := [2]core.Value{row[0], row[1]}
					byToken[k] = append(byToken[k], row[2])
				}
				pairs := core.NewRelation(core.ColSrc, core.ColTrg)
				for _, vs := range byToken {
					for _, a := range vs {
						for _, b := range vs {
							pairs.Add([]core.Value{a, b})
						}
					}
				}
				return pairs, nil
			},
		}
	})
}

// anbnCols is the anbn message schema: a token from origin arriving at dst
// with balance = #a − #b read so far, in phase 0 while reading a's and
// phase 1 while reading b's.
var anbnCols = []string{"balance", "dst", "origin", "phase"}

// RunAnBn computes the pairs connected by a path of n edges labeled a
// followed by exactly n edges labeled b (n ≥ 1) — the paper's anbn query.
// On a cyclic a-subgraph the balance grows without bound, so the run
// exhausts the message budget or the superstep bound, exactly like GraphX
// runs out of memory in the paper. maxMessages is the message budget
// (0 = unlimited).
func (g *Graph) RunAnBn(labelA, labelB core.Value, maxMessages int64) (*Result, error) {
	return g.run(anbnCols, maxMessages, 2*g.vertices, func(adj *adjacency) program {
		seen := core.NewRelation(anbnCols...) // every token received
		results := core.NewRelation(core.ColSrc, core.ColTrg)
		return program{
			seed: func(out *core.Relation) {
				for _, v := range adj.vertices {
					for _, e := range adj.out[v] {
						if e.label == labelA {
							out.Add([]core.Value{1, e.to, v, 0})
						}
					}
				}
			},
			receive: func(msg []core.Value, out *core.Relation) {
				if !seen.Add(msg) {
					return
				}
				balance, v, origin, phase := msg[0], msg[1], msg[2], msg[3]
				if phase == 1 && balance == 0 {
					results.Add([]core.Value{origin, v}) // balanced: token consumed
					return
				}
				for _, e := range adj.out[v] {
					if e.label == labelA && phase == 0 {
						out.Add([]core.Value{balance + 1, e.to, origin, 0})
					}
					if e.label == labelB && balance > 0 { // switch to (or continue) the b-phase
						out.Add([]core.Value{balance - 1, e.to, origin, 1})
					}
				}
			},
			result: func(*cluster.Ctx) (*core.Relation, error) { return results, nil },
		}
	})
}
