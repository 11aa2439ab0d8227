package pregel

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rpq"
)

// newSession opens a session on a fresh 3-worker cluster; both close
// when the test ends.
func newSession(t *testing.T, kind cluster.TransportKind) *cluster.Session {
	return newSessionCtx(t, kind, context.Background())
}

func newSessionCtx(t *testing.T, kind cluster.TransportKind, ctx context.Context) *cluster.Session {
	t.Helper()
	c, err := cluster.New(cluster.Config{Workers: 3, Transport: kind})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := c.NewSession(ctx)
	t.Cleanup(s.Close)
	return s
}

func triplesOf(edges []rpq.LabeledEdge) *core.Relation {
	r := core.NewRelation(core.ColSrc, core.ColPred, core.ColTrg)
	for _, e := range edges {
		r.AddTuple([]string{core.ColSrc, core.ColPred, core.ColTrg},
			[]core.Value{e.Src, e.Label, e.Trg})
	}
	return r
}

func pairsSet(rel *core.Relation) map[[2]core.Value]bool {
	si := core.ColIndex(rel.Cols(), core.ColSrc)
	ti := core.ColIndex(rel.Cols(), core.ColTrg)
	out := map[[2]core.Value]bool{}
	for _, row := range rel.Rows() {
		out[[2]core.Value{row[si], row[ti]}] = true
	}
	return out
}

func TestRPQMatchesNFAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := newSession(t, cluster.TransportChan)
	dict := core.NewDict()
	labels := []core.Value{dict.Intern("a"), dict.Intern("b"), dict.Intern("c")}
	exprs := []string{"a+", "a/b", "(a|b)+", "a+/b", "(a/-a)+", "-a+", "(a|b)+/c"}
	for trial := 0; trial < 12; trial++ {
		var edges []rpq.LabeledEdge
		for i := 0; i < 16; i++ {
			edges = append(edges, rpq.LabeledEdge{
				Src:   core.Value(rng.Intn(7) + 50),
				Trg:   core.Value(rng.Intn(7) + 50),
				Label: labels[rng.Intn(len(labels))],
			})
		}
		g, err := LoadGraph(s, triplesOf(edges))
		if err != nil {
			t.Fatal(err)
		}
		expr := rpq.MustParse(exprs[trial%len(exprs)])
		nfa := rpq.CompileNFA(expr, dict)
		want := rpq.EvalNFA(nfa, edges)
		res, err := g.RunRPQ(nfa, RPQOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := pairsSet(res.Pairs)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%s): pregel %d pairs, reference %d\n got: %v\nwant: %v",
				trial, expr, len(got), len(want), got, want)
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("trial %d (%s): missing %v", trial, expr, p)
			}
		}
	}
}

func TestRPQAnchoredStart(t *testing.T) {
	s := newSession(t, cluster.TransportChan)
	dict := core.NewDict()
	la := dict.Intern("a")
	edges := []rpq.LabeledEdge{
		{Src: 1, Trg: 2, Label: la},
		{Src: 2, Trg: 3, Label: la},
		{Src: 10, Trg: 11, Label: la},
	}
	g, err := LoadGraph(s, triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	nfa := rpq.CompileNFA(rpq.MustParse("a+"), dict)
	res, err := g.RunRPQ(nfa, RPQOptions{StartNodes: []core.Value{1}})
	if err != nil {
		t.Fatal(err)
	}
	got := pairsSet(res.Pairs)
	want := map[[2]core.Value]bool{{1, 2}: true, {1, 3}: true}
	if len(got) != len(want) {
		t.Fatalf("anchored run: %v, want %v", got, want)
	}
	// Anchoring must also reduce message volume versus the full start.
	full, err := g.RunRPQ(nfa, RPQOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Messages <= res.Messages {
		t.Fatalf("anchored messages %d not fewer than full %d", res.Messages, full.Messages)
	}
}

func TestRPQMessageBudget(t *testing.T) {
	s := newSession(t, cluster.TransportChan)
	dict := core.NewDict()
	la := dict.Intern("a")
	var edges []rpq.LabeledEdge
	for i := 0; i < 40; i++ {
		edges = append(edges, rpq.LabeledEdge{
			Src: core.Value(i), Trg: core.Value((i + 1) % 40), Label: la,
		})
	}
	g, err := LoadGraph(s, triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	nfa := rpq.CompileNFA(rpq.MustParse("a+"), dict)
	_, err = g.RunRPQ(nfa, RPQOptions{MaxMessages: 50})
	if !errors.Is(err, ErrMessageBudget) {
		t.Fatalf("expected message-budget error, got %v", err)
	}
}

func TestRPQSuperstepsTrackPathLength(t *testing.T) {
	s := newSession(t, cluster.TransportChan)
	dict := core.NewDict()
	la := dict.Intern("a")
	var edges []rpq.LabeledEdge
	for i := 0; i < 12; i++ {
		edges = append(edges, rpq.LabeledEdge{Src: core.Value(i), Trg: core.Value(i + 1), Label: la})
	}
	g, err := LoadGraph(s, triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	nfa := rpq.CompileNFA(rpq.MustParse("a+"), dict)
	res, err := g.RunRPQ(nfa, RPQOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A 12-edge chain needs about 12 supersteps to saturate.
	if res.Supersteps < 11 || res.Supersteps > 14 {
		t.Fatalf("supersteps = %d, want ≈12", res.Supersteps)
	}
	if res.Pairs.Len() != 12*13/2 {
		t.Fatalf("pairs = %d, want %d", res.Pairs.Len(), 12*13/2)
	}
}

func TestRPQOverTCP(t *testing.T) {
	s := newSession(t, cluster.TransportTCP)
	dict := core.NewDict()
	la, lb := dict.Intern("a"), dict.Intern("b")
	rng := rand.New(rand.NewSource(62))
	var edges []rpq.LabeledEdge
	for i := 0; i < 20; i++ {
		l := la
		if rng.Intn(2) == 0 {
			l = lb
		}
		edges = append(edges, rpq.LabeledEdge{
			Src: core.Value(rng.Intn(8)), Trg: core.Value(rng.Intn(8)), Label: l,
		})
	}
	g, err := LoadGraph(s, triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	nfa := rpq.CompileNFA(rpq.MustParse("a+/b"), dict)
	want := rpq.EvalNFA(nfa, edges)
	res, err := g.RunRPQ(nfa, RPQOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pairsSet(res.Pairs); len(got) != len(want) {
		t.Fatalf("TCP run: %d pairs, want %d", len(got), len(want))
	}
	// Superstep messages must have crossed the wire.
	if s.Metrics().Snapshot().ShufflePhases == 0 {
		t.Fatal("no superstep shuffles recorded")
	}
}

func TestLoadGraphVertexCount(t *testing.T) {
	s := newSession(t, cluster.TransportChan)
	dict := core.NewDict()
	la := dict.Intern("a")
	edges := []rpq.LabeledEdge{
		{Src: 1, Trg: 2, Label: la},
		{Src: 2, Trg: 3, Label: la},
		{Src: 3, Trg: 1, Label: la},
	}
	g, err := LoadGraph(s, triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	if g.Vertices() != 3 {
		t.Fatalf("vertices = %d, want 3", g.Vertices())
	}
}

// cancelAfter is a context that cancels itself on the nth call of its
// Err. A session consults Err before every phase and at every barrier,
// so the cancel lands mid-run at a point that does not depend on timing.
type cancelAfter struct {
	context.Context
	n      atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestRPQStopsOnCancel: an RPQ whose session context is cancelled stops
// at its next superstep and reports context.Canceled, where the same run
// on a live session takes one superstep per edge of the chain.
func TestRPQStopsOnCancel(t *testing.T) {
	dict := core.NewDict()
	la := dict.Intern("a")
	const chain = 200
	var edges []rpq.LabeledEdge
	for i := 0; i < chain; i++ {
		edges = append(edges, rpq.LabeledEdge{Src: core.Value(i), Trg: core.Value(i + 1), Label: la})
	}
	nfa := rpq.CompileNFA(rpq.MustParse("a+"), dict)
	opts := RPQOptions{StartNodes: []core.Value{0}}

	g, err := LoadGraph(newSession(t, cluster.TransportChan), triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	full, err := g.RunRPQ(nfa, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Supersteps < chain {
		t.Fatalf("live run took %d supersteps, want at least %d", full.Supersteps, chain)
	}

	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAfter{Context: parent, cancel: cancel}
	g, err = LoadGraph(newSessionCtx(t, cluster.TransportChan, ctx), triplesOf(edges))
	if err != nil {
		t.Fatal(err)
	}
	// Armed after the load, the cancel lands a few supersteps into the run.
	ctx.n.Store(20)
	res, err := g.RunRPQ(nfa, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: got (%v, %v), want context.Canceled", res, err)
	}
	if ctx.n.Load() > 0 {
		t.Fatal("the run returned before its context was cancelled")
	}
}
