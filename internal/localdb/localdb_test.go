package localdb

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func randomRel(rng *rand.Rand, n, domain int) *core.Relation {
	r := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < n; i++ {
		r.Add([]core.Value{core.Value(rng.Intn(domain)), core.Value(rng.Intn(domain))})
	}
	return r
}

func TestTableAndIndex(t *testing.T) {
	db := Open()
	rel := core.NewRelation(core.ColSrc, core.ColTrg)
	rel.Add([]core.Value{1, 2})
	rel.Add([]core.Value{1, 3})
	rel.Add([]core.Value{2, 3})
	tab := db.CreateTable("E", rel)
	ix, err := tab.EnsureIndex(core.ColSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Probe([]core.Value{1}); len(got) != 2 {
		t.Fatalf("probe(1) = %d rows, want 2", len(got))
	}
	if got := ix.Probe([]core.Value{9}); len(got) != 0 {
		t.Fatalf("probe(9) = %d rows, want 0", len(got))
	}
	// Same index is reused.
	ix2, err := tab.EnsureIndex(core.ColSrc)
	if err != nil {
		t.Fatal(err)
	}
	if ix2 != ix {
		t.Fatal("EnsureIndex rebuilt an existing index")
	}
	if _, err := tab.EnsureIndex("zz"); err == nil {
		t.Fatal("expected error for missing column")
	}
	if names := db.Names(); len(names) != 1 || names[0] != "E" {
		t.Fatalf("Names = %v", names)
	}
	db.Drop("E")
	if _, ok := db.Table("E"); ok {
		t.Fatal("Drop did not remove table")
	}
}

func TestExecutorMatchesCoreEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		e := randomRel(rng, 40, 10)
		s := randomRel(rng, 8, 10)
		db := Open()
		db.CreateTable("E", e)
		db.CreateTable("S", s)
		env := core.NewEnv()
		env.Bind("E", e)
		env.Bind("S", s)

		terms := []core.Term{
			&core.Var{Name: "E"},
			core.Compose(&core.Var{Name: "S"}, &core.Var{Name: "E"}),
			&core.Filter{Cond: core.EqConst{Col: core.ColSrc, Val: 3}, T: &core.Var{Name: "E"}},
			&core.Antijoin{L: &core.Var{Name: "E"}, R: &core.Var{Name: "S"}},
			core.ClosureLR("X", &core.Var{Name: "E"}),
			core.ClosureRL("X", &core.Var{Name: "E"}),
			&core.Fixpoint{X: "X", Body: &core.Union{
				L: &core.Var{Name: "S"},
				R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
			}},
		}
		for _, term := range terms {
			want, err := core.Eval(term, env)
			if err != nil {
				t.Fatal(err)
			}
			ex := NewExecutor(db)
			got, err := ex.Eval(term)
			if err != nil {
				t.Fatalf("localdb eval %s: %v", term, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: localdb %v ≠ core %v for %s", trial, got, want, term)
			}
		}
	}
}

func TestFixpointUsesIndexProbes(t *testing.T) {
	// A long chain: per-iteration work must be index probes on the delta,
	// and the constant side must be cached (one index build total).
	e := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 300; i++ {
		e.Add([]core.Value{core.Value(i), core.Value(i + 1)})
	}
	s := core.NewRelation(core.ColSrc, core.ColTrg)
	s.Add([]core.Value{0, 1})
	db := Open()
	db.CreateTable("E", e)
	db.CreateTable("S", s)
	fp := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
	ex := NewExecutor(db)
	got, err := ex.Eval(fp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 300 {
		t.Fatalf("chain reachability = %d rows, want 300", got.Len())
	}
	if ex.Stats.IndexBuilds != 1 {
		t.Fatalf("index builds = %d, want 1 (cached across iterations)", ex.Stats.IndexBuilds)
	}
	if ex.Stats.IndexProbes == 0 || ex.Stats.IndexProbes > 1000 {
		t.Fatalf("index probes = %d, want ≈ one per delta row", ex.Stats.IndexProbes)
	}
	if ex.Stats.CacheHits < 290 {
		t.Fatalf("cache hits = %d, want one per iteration", ex.Stats.CacheHits)
	}
	if ex.Stats.FixpointIters < 300 {
		t.Fatalf("iterations = %d, want ≈301", ex.Stats.FixpointIters)
	}
}

func TestRunFixpointFromArbitraryInit(t *testing.T) {
	// The P pg_plw plan seeds each worker's fixpoint with its own
	// partition; RunFixpoint must accept any init.
	rng := rand.New(rand.NewSource(12))
	e := randomRel(rng, 30, 8)
	s := randomRel(rng, 8, 8)
	db := Open()
	db.CreateTable("E", e)
	env := core.NewEnv()
	env.Bind("E", e)
	env.Bind("S", s)
	fp := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
	d, err := core.Decompose(fp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Eval(fp, env)
	if err != nil {
		t.Fatal(err)
	}
	parts := core.SplitRelation(s, 3, []string{core.ColSrc})
	got := core.NewRelation(core.ColSrc, core.ColTrg)
	for _, p := range parts {
		ex := NewExecutor(db)
		sub, err := ex.RunFixpoint(d, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		got.UnionInPlace(sub)
	}
	if !got.Equal(want) {
		t.Fatalf("split fixpoints on localdb: got %v want %v", got, want)
	}
}

func TestExecutorUnknownRelation(t *testing.T) {
	ex := NewExecutor(Open())
	if _, err := ex.Eval(&core.Var{Name: "nope"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestExecutorMergedFixpoint(t *testing.T) {
	// Two-branch (merged) fixpoint: µ(Z = A∘B ∪ A∘Z ∪ Z∘B) ≡ A+∘B+.
	rng := rand.New(rand.NewSource(13))
	a := randomRel(rng, 20, 7)
	b := randomRel(rng, 20, 7)
	db := Open()
	db.CreateTable("A", a)
	db.CreateTable("B", b)
	env := core.NewEnv()
	env.Bind("A", a)
	env.Bind("B", b)

	zv := &core.Var{Name: "Z"}
	merged := &core.Fixpoint{X: "Z", Body: core.UnionOf([]core.Term{
		core.Compose(&core.Var{Name: "A"}, &core.Var{Name: "B"}),
		core.Compose(&core.Var{Name: "A"}, zv),
		core.Compose(zv, &core.Var{Name: "B"}),
	})}
	composed := core.Compose(
		core.ClosureLR("X", &core.Var{Name: "A"}),
		core.ClosureLR("Y", &core.Var{Name: "B"}),
	)
	want, err := core.Eval(composed, env)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(db)
	got, err := ex.Eval(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("merged fixpoint on localdb: got %v want %v", got, want)
	}
}

func TestIndexedFixpointBeatsRescan(t *testing.T) {
	// On a long chain with a large step relation, the executor's probe
	// count must be far below rows×iterations (which a rescan would cost).
	e := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 2000; i++ {
		e.Add([]core.Value{core.Value(i), core.Value(i + 1)})
	}
	s := core.NewRelation(core.ColSrc, core.ColTrg)
	s.Add([]core.Value{0, 1})
	db := Open()
	db.CreateTable("E", e)
	db.CreateTable("S", s)
	fp := &core.Fixpoint{X: "X", Body: &core.Union{
		L: &core.Var{Name: "S"},
		R: core.Compose(&core.Var{Name: "X"}, &core.Var{Name: "E"}),
	}}
	ex := NewExecutor(db)
	out, err := ex.Eval(fp)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2000 {
		t.Fatalf("rows = %d, want 2000", out.Len())
	}
	// ~one probe per produced tuple; a rescan plan would touch
	// |E| × iterations = 4M rows.
	if ex.Stats.IndexProbes > 3*2000 {
		t.Fatalf("probes = %d, want ≈2000", ex.Stats.IndexProbes)
	}
}

func TestExecutorFilterAndAntijoinCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	e := randomRel(rng, 40, 10)
	s := randomRel(rng, 15, 10)
	db := Open()
	db.CreateTable("E", e)
	db.CreateTable("S", s)
	env := core.NewEnv()
	env.Bind("E", e)
	env.Bind("S", s)
	terms := []core.Term{
		&core.Filter{Cond: core.And{
			core.NeConst{Col: core.ColSrc, Val: 0},
			core.EqCols{A: core.ColSrc, B: core.ColTrg},
		}, T: &core.Var{Name: "E"}},
		&core.Antijoin{
			L: core.Compose(&core.Var{Name: "S"}, &core.Var{Name: "E"}),
			R: &core.Var{Name: "S"},
		},
		&core.Union{
			L: &core.Rename{From: core.ColTrg, To: "k", T: &core.Var{Name: "E"}},
			R: &core.Rename{From: core.ColTrg, To: "k", T: &core.Var{Name: "S"}},
		},
	}
	for _, term := range terms {
		want, err := core.Eval(term, env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewExecutor(db).Eval(term)
		if err != nil {
			t.Fatalf("%s: %v", term, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: localdb %v ≠ core %v", term, got, want)
		}
	}
}

// TestTableReplacementReleasesGaugeCharges guards the worker-lifetime
// budget against the Ppg_plw pattern of re-creating broadcast tables per
// query: replaced/dropped tables and invalidated constant memos must
// return their index charges to the gauge, or the worker ratchets into a
// permanently over-budget state.
func TestTableReplacementReleasesGaugeCharges(t *testing.T) {
	db := Open()
	g := core.NewMemGauge(1<<30, t.TempDir())
	db.SetGauge(g)
	rel := func() *core.Relation {
		r := core.NewRelation(core.ColSrc, core.ColTrg)
		for i := 0; i < 200; i++ {
			r.Add([]core.Value{core.Value(i), core.Value(i + 1)})
		}
		return r
	}
	var oneIndex int64
	for round := 0; round < 5; round++ {
		tab := db.CreateTable("E", rel())
		if _, err := tab.EnsureIndex(core.ColSrc); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			oneIndex = g.Used()
			if oneIndex == 0 {
				t.Fatal("budgeted index build charged nothing")
			}
		}
		if g.Used() > oneIndex {
			t.Fatalf("round %d: gauge ratcheted to %d (one index costs %d)", round, g.Used(), oneIndex)
		}
	}
	db.Drop("E")
	db.Close()
	if g.Used() != 0 {
		t.Fatalf("leaked %d bytes after Drop+Close", g.Used())
	}
}

// TestExecutorCancelled: a cancelled executor context aborts RunFixpoint
// at its per-iteration check with ctx.Err().
func TestExecutorCancelled(t *testing.T) {
	db := Open()
	edges := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 64; i++ {
		edges.Add([]core.Value{core.Value(i), core.Value(i + 1)})
	}
	db.CreateTable("E", edges)
	ex := NewExecutor(db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex.Ctx = ctx
	_, err := ex.Eval(core.ClosureLR("X", &core.Var{Name: "E"}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestBudgetedFixpointLargeDelta runs X = E ∪ X∘E under a budget far below
// the result, with deltas large enough for the parallel probe path, once
// with the constant side's index in memory and once with it spilled (the
// Grace path). The branch rows go straight into the fixpoint accumulator,
// so an over-budget eviction during an iteration must leave the rows that
// iteration added — the next delta — in memory.
func TestBudgetedFixpointLargeDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := randomRel(rng, 1800, 150)
	env := core.NewEnv()
	env.Bind("E", e)
	fp := core.ClosureLR("X", &core.Var{Name: "E"})
	want, err := core.Eval(fp, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		budget int64
		grace  bool
	}{
		{"parallel", 256 << 10, false},
		{"grace", 16 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := Open()
			defer db.Close()
			db.CreateTable("E", e)
			g := core.NewMemGauge(tc.budget, t.TempDir())
			if !tc.grace {
				// Build the index before the budget applies, so that it stays
				// in memory and only the accumulator is over budget.
				if _, err := NewExecutor(db).Eval(fp); err != nil {
					t.Fatal(err)
				}
			}
			db.SetGauge(g)
			ex := NewExecutor(db)
			got, err := ex.Eval(fp)
			if err != nil {
				t.Fatal(err)
			}
			if !core.SameRows(got, want) {
				t.Fatalf("budgeted localdb fixpoint: %d rows, want %d", got.Len(), want.Len())
			}
			if g.Spills() == 0 {
				t.Fatal("nothing spilled: the budget does not exercise eviction")
			}
			spilled := false
			for _, c := range db.consts {
				for _, ix := range c.indexes {
					spilled = spilled || ix.Spilled()
				}
			}
			if spilled != tc.grace {
				t.Fatalf("constant-side index spilled = %v, want %v", spilled, tc.grace)
			}
		})
	}
}
