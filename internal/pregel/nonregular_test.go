package pregel

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/rpq"
)

// dagEdges builds a small DAG with a- and b-labeled edges (no cycles, so
// the token floods terminate).
func dagEdges(dict *core.Dict) []rpq.LabeledEdge {
	la, lb := dict.Intern("a"), dict.Intern("b")
	return []rpq.LabeledEdge{
		// a-layer: 1→2→3, 1→4
		{Src: 1, Trg: 2, Label: la},
		{Src: 2, Trg: 3, Label: la},
		{Src: 1, Trg: 4, Label: la},
		// b-layer: 3→5→6, 4→7
		{Src: 3, Trg: 5, Label: lb},
		{Src: 5, Trg: 6, Label: lb},
		{Src: 4, Trg: 7, Label: lb},
		// extra a-children for same-generation pairs
		{Src: 2, Trg: 8, Label: la},
		{Src: 8, Trg: 9, Label: la},
	}
}

// anbnProgram is the Datalog reference for RunAnBn: ab(X,Y) holds when a
// path of n la-edges followed by n lb-edges leads from X to Y.
func anbnProgram(la, lb core.Value) *datalog.Program {
	v := datalog.V
	return &datalog.Program{Rules: []datalog.Rule{
		{Head: datalog.NewAtom("ab", v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom("g", v("X"), datalog.C(la), v("Z")),
			datalog.NewAtom("g", v("Z"), datalog.C(lb), v("Y")),
		}},
		{Head: datalog.NewAtom("ab", v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom("g", v("X"), datalog.C(la), v("Z")),
			datalog.NewAtom("ab", v("Z"), v("W")),
			datalog.NewAtom("g", v("W"), datalog.C(lb), v("Y")),
		}},
	}}
}

// sgProgram is the Datalog reference for RunSameGeneration restricted to
// one label.
func sgProgram(label core.Value) *datalog.Program {
	v := datalog.V
	return &datalog.Program{Rules: []datalog.Rule{
		{Head: datalog.NewAtom("sg", v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom("g", v("P"), datalog.C(label), v("X")),
			datalog.NewAtom("g", v("P"), datalog.C(label), v("Y")),
		}},
		{Head: datalog.NewAtom("sg", v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom("g", v("P"), datalog.C(label), v("X")),
			datalog.NewAtom("sg", v("P"), v("Q")),
			datalog.NewAtom("g", v("Q"), datalog.C(label), v("Y")),
		}},
	}}
}

// matchDatalog fails t unless got holds exactly the pred(X, Y) tuples
// that datalog evaluation of prog derives over edges, and returns them.
func matchDatalog(t *testing.T, got *core.Relation, prog *datalog.Program, pred string, edges []rpq.LabeledEdge) map[[2]core.Value]bool {
	t.Helper()
	want, _, err := datalog.Query(prog, datalog.EdgeDB("g", triplesOf(edges)),
		datalog.NewAtom(pred, datalog.V("X"), datalog.V("Y")))
	if err != nil {
		t.Fatal(err)
	}
	pairs := pairsSet(got)
	if len(pairs) != want.Len() {
		t.Fatalf("pregel %s %d pairs, datalog %d\n got: %v\nwant: %v",
			pred, len(pairs), want.Len(), pairs, want.Rows())
	}
	for _, row := range want.Rows() {
		if !pairs[[2]core.Value{row[0], row[1]}] {
			t.Fatalf("pregel %s misses pair %v", pred, row)
		}
	}
	return pairs
}

func TestAnBnMatchesDatalog(t *testing.T) {
	s := newSession(t, cluster.TransportChan)
	dict := core.NewDict()
	edges := dagEdges(dict)
	g, err := LoadGraph(s, triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	la, _ := dict.Lookup("a")
	lb, _ := dict.Lookup("b")
	res, err := g.RunAnBn(la, lb, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := matchDatalog(t, res.Pairs, anbnProgram(la, lb), "ab", edges)
	// Sanity on the DAG by hand: a=1 b=1 paths 2→3→5, a²b²: 1→2→3,3→5,5→6.
	if !got[[2]core.Value{2, 5}] || !got[[2]core.Value{1, 6}] {
		t.Fatalf("expected hand-checked pairs missing: %v", got)
	}
}

func TestAnBnDivergesOnACycle(t *testing.T) {
	s := newSession(t, cluster.TransportChan)
	dict := core.NewDict()
	la, lb := dict.Intern("a"), dict.Intern("b")
	edges := []rpq.LabeledEdge{
		{Src: 1, Trg: 2, Label: la},
		{Src: 2, Trg: 1, Label: la}, // a-cycle: unbounded balance
		{Src: 2, Trg: 3, Label: lb},
	}
	g, err := LoadGraph(s, triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.RunAnBn(la, lb, 500)
	if !errors.Is(err, ErrMessageBudget) {
		t.Fatalf("expected budget exhaustion on a-cycle, got %v", err)
	}
}

func TestSameGenerationMatchesDatalog(t *testing.T) {
	s := newSession(t, cluster.TransportChan)
	dict := core.NewDict()
	edges := dagEdges(dict)
	g, err := LoadGraph(s, triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	la, _ := dict.Lookup("a")
	res, err := g.RunSameGeneration(la, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := matchDatalog(t, res.Pairs, sgProgram(la), "sg", edges)
	// Hand check: 2 and 4 share parent 1 → same generation; 3 and 8 share
	// grandparent through 2.
	if !got[[2]core.Value{2, 4}] || !got[[2]core.Value{3, 8}] {
		t.Fatalf("expected pairs missing: %v", got)
	}
}

func TestSameGenerationBudget(t *testing.T) {
	s := newSession(t, cluster.TransportChan)
	dict := core.NewDict()
	la := dict.Intern("a")
	// Cycle → unbounded depth tokens.
	edges := []rpq.LabeledEdge{
		{Src: 1, Trg: 2, Label: la},
		{Src: 2, Trg: 3, Label: la},
		{Src: 3, Trg: 1, Label: la},
	}
	g, err := LoadGraph(s, triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.RunSameGeneration(la, 200)
	if !errors.Is(err, ErrMessageBudget) {
		t.Fatalf("expected budget exhaustion on cycle, got %v", err)
	}
}

// chain labels the path 0 → 1 → … → len(labels) with labels in order.
func chain(labels ...core.Value) []rpq.LabeledEdge {
	edges := make([]rpq.LabeledEdge, len(labels))
	for i, l := range labels {
		edges[i] = rpq.LabeledEdge{Src: core.Value(i), Trg: core.Value(i + 1), Label: l}
	}
	return edges
}

func repeat(l core.Value, n int) []core.Value {
	out := make([]core.Value, n)
	for i := range out {
		out[i] = l
	}
	return out
}

// TestDivergentFloodsStop: with no message budget, a same-generation or
// anbn flood around a cycle ends at the 2·|V| superstep bound with an
// error wrapping ErrMessageBudget, while the runs that converge closest
// to the bound still converge and match Datalog. The session's deadline
// turns a flood that never stops into a failure instead of a hang.
func TestDivergentFloodsStop(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s := newSessionCtx(t, cluster.TransportChan, ctx)
	dict := core.NewDict()
	la, lb := dict.Intern("a"), dict.Intern("b")
	load := func(edges []rpq.LabeledEdge) *Graph {
		t.Helper()
		g, err := LoadGraph(s, triplesOf(edges))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	diverges := func(name string, run func() (*Result, error)) {
		t.Helper()
		res, err := run()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("%s on a 3-cycle still flooding at the session deadline", name)
		case !errors.Is(err, ErrMessageBudget):
			t.Fatalf("%s on a 3-cycle: got (%v, %v), want ErrMessageBudget", name, res, err)
		}
	}
	converges := func(name string, res *Result, err error, supersteps int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Supersteps != supersteps {
			t.Fatalf("%s: %d supersteps, want %d", name, res.Supersteps, supersteps)
		}
	}

	cycle := load([]rpq.LabeledEdge{{Src: 1, Trg: 2, Label: la}, {Src: 2, Trg: 3, Label: la}, {Src: 3, Trg: 1, Label: la}})
	diverges("same-generation", func() (*Result, error) { return cycle.RunSameGeneration(la, 0) })
	diverges("anbn", func() (*Result, error) { return cycle.RunAnBn(la, lb, 0) })

	// aᵏbᵏ: the balanced token from 0 reaches 2k at superstep 2k, on 2k+1
	// vertices.
	const k = 6
	edges := chain(append(repeat(la, k), repeat(lb, k)...)...)
	res, err := load(edges).RunAnBn(la, lb, 0)
	converges("anbn on aᵏbᵏ", res, err, 2*k)
	matchDatalog(t, res.Pairs, anbnProgram(la, lb), "ab", edges)

	// An a-chain into a b-self-loop: the token from 0 climbs to balance
	// |V|−1, then unwinds on the loop, 2(|V|−1) supersteps in all — the
	// longest a converging anbn run takes.
	edges = append(chain(repeat(la, k)...), rpq.LabeledEdge{Src: k, Trg: k, Label: lb})
	g := load(edges)
	res, err = g.RunAnBn(la, lb, 0)
	converges("anbn into a b-loop", res, err, 2*(g.Vertices()-1))
	matchDatalog(t, res.Pairs, anbnProgram(la, lb), "ab", edges)

	// A label chain: the deepest token arrives at superstep |V|−1.
	edges = chain(repeat(la, 2*k)...)
	g = load(edges)
	res, err = g.RunSameGeneration(la, 0)
	converges("same-generation on a chain", res, err, g.Vertices()-1)
	matchDatalog(t, res.Pairs, sgProgram(la), "sg", edges)
}
