package core

import (
	"errors"
	"math/rand"
	"testing"
)

// fig2Env builds the running example of Fig. 2 of the paper: a directed
// graph G with edge relation E and starting-edge relation S.
func fig2Env() *Env {
	e := NewRelation(ColSrc, ColTrg)
	for _, p := range [][2]Value{
		{1, 2}, {1, 4}, {2, 3}, {4, 5}, {5, 6},
		{10, 11}, {10, 13}, {11, 5}, {11, 12}, {13, 12},
	} {
		e.Add([]Value{p[0], p[1]})
	}
	s := NewRelation(ColSrc, ColTrg)
	for _, p := range [][2]Value{{1, 2}, {1, 4}, {10, 11}, {10, 13}} {
		s.Add([]Value{p[0], p[1]})
	}
	env := NewEnv()
	env.Bind("E", e)
	env.Bind("S", s)
	return env
}

// reachFixpoint is Example 2 of the paper:
// µ(X = S ∪ π̃c(ρ^c_trg(X) ⋈ ρ^c_src(E))).
func reachFixpoint() *Fixpoint {
	return &Fixpoint{X: "X", Body: &Union{
		L: &Var{Name: "S"},
		R: Compose(&Var{Name: "X"}, &Var{Name: "E"}),
	}}
}

func TestExample1PathsOfLengthTwo(t *testing.T) {
	env := fig2Env()
	got, err := Eval(Compose(&Var{Name: "S"}, &Var{Name: "E"}), env)
	if err != nil {
		t.Fatal(err)
	}
	want := rel(t, []string{ColSrc, ColTrg},
		[]Value{1, 3}, []Value{1, 5}, []Value{10, 5}, []Value{10, 12})
	if !got.Equal(want) {
		t.Fatalf("Example 1 = %v, want %v", got, want)
	}
}

func TestExample2FixpointReachability(t *testing.T) {
	env := fig2Env()
	ev := NewEvaluator(env)
	got, err := ev.Eval(reachFixpoint())
	if err != nil {
		t.Fatal(err)
	}
	// All pairs (root, node) reachable from root-starting edges, exactly as
	// enumerated in §II-A of the paper (X1 ∪ X2 ∪ X3).
	want := rel(t, []string{ColSrc, ColTrg},
		[]Value{1, 2}, []Value{1, 4}, []Value{10, 11}, []Value{10, 13},
		[]Value{1, 3}, []Value{1, 5}, []Value{10, 5}, []Value{10, 12},
		[]Value{1, 6}, []Value{10, 6},
	)
	if !got.Equal(want) {
		t.Fatalf("Example 2 fixpoint = %v\nwant %v", got, want)
	}
	// The paper reports the fixpoint reached in 4 steps (3 productive
	// iterations + 1 empty); Algorithm 1 counts productive applications.
	if ev.Stats.FixpointIterations < 3 || ev.Stats.FixpointIterations > 4 {
		t.Fatalf("iterations = %d, want 3 or 4", ev.Stats.FixpointIterations)
	}
}

func TestFixpointNoConstantPartFails(t *testing.T) {
	fp := &Fixpoint{X: "X", Body: Compose(&Var{Name: "X"}, &Var{Name: "E"})}
	if _, err := Eval(fp, fig2Env()); err == nil {
		t.Fatal("expected error for fixpoint with no constant part")
	}
}

func TestFcondViolations(t *testing.T) {
	x := &Var{Name: "X"}
	r := &Var{Name: "R"}
	cases := []struct {
		name string
		fp   *Fixpoint
		want Code
	}{
		{"not positive", &Fixpoint{X: "X", Body: &Union{L: r, R: &Antijoin{L: r, R: x}}}, CodeFixNonPositive},
		{"not linear", &Fixpoint{X: "X", Body: &Union{L: r, R: &Join{L: x, R: x}}}, CodeFixNonLinear},
		{"mutually recursive", &Fixpoint{X: "X", Body: &Union{
			L: r,
			R: &Fixpoint{X: "Y", Body: &Union{L: &Join{L: x, R: r}, R: &Var{Name: "Y"}}},
		}}, CodeFixMutual},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ce *CheckError
			if err := CheckFcond(tc.fp); !errors.As(err, &ce) {
				t.Fatalf("CheckFcond(%s) = %v, want a *CheckError", tc.fp, err)
			}
			if len(ce.Diags) != 1 || ce.Diags[0].Code != tc.want {
				t.Fatalf("CheckFcond(%s) diagnostics %v, want one %s", tc.fp, ce.Diags, tc.want)
			}
			if _, err := Decompose(tc.fp); !errors.As(err, &ce) || ce.Diags[0].Code != tc.want {
				t.Fatalf("Decompose(%s) = %v, want %s", tc.fp, err, tc.want)
			}
		})
	}
}

func TestFcondAccepted(t *testing.T) {
	// µ(X = R ∪ X ⋈ µ(Y = R ∪ φ(Y))) satisfies Fcond (from §II-B).
	inner := &Fixpoint{X: "Y", Body: &Union{
		L: &Var{Name: "R"},
		R: Compose(&Var{Name: "Y"}, &Var{Name: "R"}),
	}}
	fp := &Fixpoint{X: "X", Body: &Union{
		L: &Var{Name: "R"},
		R: &Join{L: &Var{Name: "X"}, R: inner},
	}}
	if err := CheckFcond(fp); err != nil {
		t.Fatalf("CheckFcond rejected valid term: %v", err)
	}
	// Rebinding the same variable shadows it.
	shadow := &Fixpoint{X: "X", Body: &Union{
		L: &Var{Name: "R"},
		R: &Join{
			L: &Var{Name: "R2"},
			R: &Fixpoint{X: "X", Body: &Union{L: &Var{Name: "R"}, R: Compose(&Var{Name: "X"}, &Var{Name: "R"})}},
		},
	}}
	if err := CheckFcond(shadow); err != nil {
		t.Fatalf("CheckFcond rejected shadowed rebinding: %v", err)
	}
}

func TestDecompose(t *testing.T) {
	fp := reachFixpoint()
	d, err := Decompose(fp)
	if err != nil {
		t.Fatal(err)
	}
	if d.Const.String() != "S" {
		t.Fatalf("constant part = %s, want S", d.Const)
	}
	if len(d.PhiBranches) != 1 {
		t.Fatalf("phi branches = %d, want 1", len(d.PhiBranches))
	}
	if !ContainsVar(d.PhiBranches[0], "X") {
		t.Fatal("phi branch lost the recursion variable")
	}
}

func TestDecomposeDistributesUnions(t *testing.T) {
	// µ(X = (S1 ∪ S2) ∪ X∘(E1 ∪ E2)) must decompose into constant part
	// S1 ∪ S2 and two φ branches.
	fp := &Fixpoint{X: "X", Body: &Union{
		L: &Union{L: &Var{Name: "S1"}, R: &Var{Name: "S2"}},
		R: Compose(&Var{Name: "X"}, &Union{L: &Var{Name: "E1"}, R: &Var{Name: "E2"}}),
	}}
	d, err := Decompose(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(UnionBranches(d.Const)) != 2 {
		t.Fatalf("constant branches = %v", d.Const)
	}
	if len(d.PhiBranches) != 2 {
		t.Fatalf("phi branches = %d, want 2", len(d.PhiBranches))
	}
	for _, br := range d.PhiBranches {
		if !ContainsVar(br, "X") {
			t.Fatalf("branch %s lost X", br)
		}
	}
}

func TestDecomposedEvaluationMatchesDirect(t *testing.T) {
	env := fig2Env()
	fp := reachFixpoint()
	d, err := Decompose(fp)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Eval(fp, env)
	if err != nil {
		t.Fatal(err)
	}
	reassembled, err := Eval(d.Fixpoint(), env)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(reassembled) {
		t.Fatal("decompose/reassemble changed semantics")
	}
}

// naiveFixpoint computes µ(X = R ∪ φ) by brute-force iteration of the full
// body (no semi-naive differential) — the reference for property tests.
func naiveFixpoint(t *testing.T, fp *Fixpoint, env *Env) *Relation {
	t.Helper()
	d, err := Decompose(fp)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Eval(d.Const, env)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		stepEnv := env.with(d.X, x)
		next := x.Clone()
		for _, br := range d.PhiBranches {
			out, err := Eval2(br, stepEnv)
			if err != nil {
				t.Fatal(err)
			}
			next.UnionInPlace(out)
		}
		if next.Equal(x) {
			return x
		}
		x = next
	}
	t.Fatal("naive fixpoint did not converge")
	return nil
}

// Eval2 evaluates without the top-level schema validation (recursion
// variables are bound directly in env).
func Eval2(t Term, env *Env) (*Relation, error) {
	return NewEvaluator(env).eval(t, env)
}

func TestSemiNaiveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		e := randomBinaryRelation(rng, 40, 12)
		s := randomBinaryRelation(rng, 6, 12)
		env := NewEnv()
		env.Bind("E", e)
		env.Bind("S", s)
		fp := reachFixpoint()
		want := naiveFixpoint(t, fp, env)
		got, err := Eval(fp, env)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: semi-naive %v ≠ naive %v", trial, got, want)
		}
	}
}

// TestProposition1Distributivity checks Ψ(S) = Ψ(∅) ∪ ⋃_{x∈S} Ψ({x}) for
// the variable part of a random reachability fixpoint.
func TestProposition1Distributivity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		e := randomBinaryRelation(rng, 30, 10)
		s := randomBinaryRelation(rng, 8, 10)
		env := NewEnv()
		env.Bind("E", e)
		phi := Compose(&Var{Name: "X"}, &Var{Name: "E"})

		apply := func(x *Relation) *Relation {
			out, err := Eval2(phi, env.with("X", x))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		whole := apply(s)
		parts := apply(NewRelation(ColSrc, ColTrg))
		for _, row := range s.Rows() {
			single := NewRelation(ColSrc, ColTrg)
			single.Add(row)
			parts.UnionInPlace(apply(single))
		}
		if !whole.Equal(parts) {
			t.Fatalf("trial %d: Ψ(S)=%v but ⋃Ψ({x})=%v", trial, whole, parts)
		}
	}
}

// TestProposition3FixpointSplitting checks
// µ(X = R1 ∪ R2 ∪ φ) = µ(X = R1 ∪ φ) ∪ µ(X = R2 ∪ φ) on random inputs,
// for both round-robin and stable-column splits, and for n parts.
func TestProposition3FixpointSplitting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		e := randomBinaryRelation(rng, 35, 10)
		s := randomBinaryRelation(rng, 10, 10)
		env := NewEnv()
		env.Bind("E", e)
		env.Bind("S", s)
		fp := reachFixpoint()
		d, err := Decompose(fp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Eval(fp, env)
		if err != nil {
			t.Fatal(err)
		}
		for _, byCols := range [][]string{nil, {ColSrc}} {
			for _, n := range []int{2, 3, 5} {
				parts := SplitRelation(s, n, byCols)
				got := NewRelation(ColSrc, ColTrg)
				for _, ri := range parts {
					ev := NewEvaluator(env)
					sub, err := ev.RunFixpoint(d, ri, env)
					if err != nil {
						t.Fatal(err)
					}
					got.UnionInPlace(sub)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d n=%d byCols=%v: split union %v ≠ %v",
						trial, n, byCols, got, want)
				}
			}
		}
	}
}

// TestStablePartitioningDisjoint checks the §III-B theorem: partitioning R
// by a stable column makes the split fixpoints pairwise disjoint.
func TestStablePartitioningDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		e := randomBinaryRelation(rng, 35, 10)
		s := randomBinaryRelation(rng, 10, 10)
		env := NewEnv()
		env.Bind("E", e)
		env.Bind("S", s)
		fp := reachFixpoint()
		d, err := Decompose(fp)
		if err != nil {
			t.Fatal(err)
		}
		stable, err := StableCols(d, env.SchemaEnv())
		if err != nil {
			t.Fatal(err)
		}
		if !ColsEqual(stable, []string{ColSrc}) {
			t.Fatalf("stable cols = %v, want [src]", stable)
		}
		parts := SplitRelation(s, 4, stable)
		var results []*Relation
		for _, ri := range parts {
			ev := NewEvaluator(env)
			sub, err := ev.RunFixpoint(d, ri, env)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, sub)
		}
		total := 0
		merged := NewRelation(ColSrc, ColTrg)
		for i, a := range results {
			total += a.Len()
			merged.UnionInPlace(a)
			for j := i + 1; j < len(results); j++ {
				for _, row := range a.Rows() {
					if results[j].Has(row) {
						t.Fatalf("trial %d: partitions %d and %d share row %v", trial, i, j, row)
					}
				}
			}
		}
		if merged.Len() != total {
			t.Fatal("stable-column partitions were not disjoint")
		}
	}
}

func TestEvalMaxIter(t *testing.T) {
	env := fig2Env()
	ev := NewEvaluator(env)
	ev.MaxIter = 1
	if _, err := ev.Eval(reachFixpoint()); err == nil {
		t.Fatal("expected max-iteration error")
	}
}

// TestFixpointReusesConstIndex: on a long chain, the constant side of φ's
// join is indexed once and that index is probed by every later iteration,
// so each step costs work proportional to the delta, not a rescan of E.
func TestFixpointReusesConstIndex(t *testing.T) {
	const n = 300
	e := NewRelation(ColSrc, ColTrg)
	for i := 0; i < n; i++ {
		e.Add([]Value{Value(i), Value(i + 1)})
	}
	s := NewRelation(ColSrc, ColTrg)
	s.Add([]Value{0, 1})
	env := NewEnv()
	env.Bind("E", e)
	env.Bind("S", s)
	ev := NewEvaluator(env)
	got, err := ev.Eval(reachFixpoint())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Fatalf("chain reachability = %d rows, want %d", got.Len(), n)
	}
	if ev.Stats.FixpointIterations != n {
		t.Fatalf("iterations = %d, want %d", ev.Stats.FixpointIterations, n)
	}
	if ev.Stats.IndexBuilds != 1 {
		t.Fatalf("index builds = %d, want 1 (built once, reused across iterations)", ev.Stats.IndexBuilds)
	}
	if ev.Stats.IndexReuses != n-1 {
		t.Fatalf("index reuses = %d, want %d (one per later iteration)", ev.Stats.IndexReuses, n-1)
	}
}

// TestIndexedFixpointBeatsRescan: on a long chain with a large step
// relation, the tuples the loop materializes stay proportional to the
// output, far below the |E| × iterations a plan rescanning E would touch.
func TestIndexedFixpointBeatsRescan(t *testing.T) {
	const n = 2000
	e := NewRelation(ColSrc, ColTrg)
	for i := 0; i < n; i++ {
		e.Add([]Value{Value(i), Value(i + 1)})
	}
	s := NewRelation(ColSrc, ColTrg)
	s.Add([]Value{0, 1})
	env := NewEnv()
	env.Bind("E", e)
	env.Bind("S", s)
	ev := NewEvaluator(env)
	out, err := ev.Eval(reachFixpoint())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != n {
		t.Fatalf("rows = %d, want %d", out.Len(), n)
	}
	if ev.Stats.IndexBuilds != 1 {
		t.Fatalf("index builds = %d, want 1 (E is never re-indexed)", ev.Stats.IndexBuilds)
	}
	// ~one materialized tuple per produced tuple; a rescan plan would
	// touch |E| × iterations = 4M rows.
	if ev.Stats.OpTuples > 3*n {
		t.Fatalf("materialized tuples = %d, want ≈%d", ev.Stats.OpTuples, n)
	}
}

func TestEvalUnboundVar(t *testing.T) {
	if _, err := Eval(&Var{Name: "nope"}, NewEnv()); err == nil {
		t.Fatal("expected unbound-variable error")
	}
}

func TestEvalConstTuple(t *testing.T) {
	ct := NewConstTuple([]string{ColTrg, ColSrc}, []Value{2, 1})
	got, err := Eval(ct, NewEnv())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Has([]Value{1, 2}) {
		t.Fatalf("const tuple eval = %v", got)
	}
}

func TestNestedFixpoint(t *testing.T) {
	// µ(X = S ∪ X ∘ µ(Y = E ∪ Y∘E)): compose S with the closure of E.
	env := fig2Env()
	inner := ClosureLR("Y", &Var{Name: "E"})
	outer := &Fixpoint{X: "X", Body: &Union{
		L: &Var{Name: "S"},
		R: Compose(&Var{Name: "X"}, inner),
	}}
	got, err := Eval(outer, env)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent to the plain reachability fixpoint on this graph.
	want, err := Eval(reachFixpoint(), env)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("nested fixpoint %v ≠ %v", got, want)
	}
}

func TestSwapSrcTrg(t *testing.T) {
	env := fig2Env()
	got, err := Eval(SwapSrcTrg(&Var{Name: "S"}), env)
	if err != nil {
		t.Fatal(err)
	}
	want := rel(t, []string{ColSrc, ColTrg},
		[]Value{2, 1}, []Value{4, 1}, []Value{11, 10}, []Value{13, 10})
	if !got.Equal(want) {
		t.Fatalf("swap = %v, want %v", got, want)
	}
}

func TestClosureBothDirectionsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		e := randomBinaryRelation(rng, 25, 8)
		env := NewEnv()
		env.Bind("E", e)
		lr, err := Eval(ClosureLR("X", &Var{Name: "E"}), env)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := Eval(ClosureRL("X", &Var{Name: "E"}), env)
		if err != nil {
			t.Fatal(err)
		}
		if !lr.Equal(rl) {
			t.Fatalf("trial %d: LR closure %v ≠ RL closure %v", trial, lr, rl)
		}
	}
}
