package pregel

import (
	"errors"
	"testing"

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
	res, err := g.RunAnBn(la, lb, RPQOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: Datalog anbn over the same edges.
	v := datalog.V
	prog := &datalog.Program{Rules: []datalog.Rule{
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
	edb := datalog.EdgeDB("g", triplesOf(edges))
	want, _, err := datalog.Query(prog, edb, datalog.NewAtom("ab", v("X"), v("Y")))
	if err != nil {
		t.Fatal(err)
	}
	got := pairsSet(res.Pairs)
	if len(got) != want.Len() {
		t.Fatalf("pregel anbn %d pairs, datalog %d\n got: %v\nwant: %v",
			len(got), want.Len(), got, want.Rows())
	}
	for _, row := range want.Rows() {
		if !got[[2]core.Value{row[0], row[1]}] {
			t.Fatalf("missing pair %v", row)
		}
	}
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
	_, err = g.RunAnBn(la, lb, RPQOptions{MaxMessages: 500})
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
	res, err := g.RunSameGeneration(la, RPQOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: Datalog same generation restricted to the a label.
	v := datalog.V
	prog := &datalog.Program{Rules: []datalog.Rule{
		{Head: datalog.NewAtom("sg", v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom("g", v("P"), datalog.C(la), v("X")),
			datalog.NewAtom("g", v("P"), datalog.C(la), v("Y")),
		}},
		{Head: datalog.NewAtom("sg", v("X"), v("Y")), Body: []datalog.Atom{
			datalog.NewAtom("g", v("P"), datalog.C(la), v("X")),
			datalog.NewAtom("sg", v("P"), v("Q")),
			datalog.NewAtom("g", v("Q"), datalog.C(la), v("Y")),
		}},
	}}
	edb := datalog.EdgeDB("g", triplesOf(edges))
	want, _, err := datalog.Query(prog, edb, datalog.NewAtom("sg", v("X"), v("Y")))
	if err != nil {
		t.Fatal(err)
	}
	got := pairsSet(res.Pairs)
	if len(got) != want.Len() {
		t.Fatalf("pregel SG %d pairs, datalog %d\n got: %v\nwant: %v",
			len(got), want.Len(), got, want.Rows())
	}
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
	_, err = g.RunSameGeneration(la, RPQOptions{MaxMessages: 200})
	if !errors.Is(err, ErrMessageBudget) {
		t.Fatalf("expected budget exhaustion on cycle, got %v", err)
	}
}
