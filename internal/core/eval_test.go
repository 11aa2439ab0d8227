package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
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

// TestDecomposeKeepsUnionFreeBranches: a branch no union is distributed
// out of comes back as the body's own subterm, pointer for pointer, so
// callers that intern or memoize terms by pointer meet it again; a union
// under an operator still distributes, sharing the operands it leaves
// alone.
func TestDecomposeKeepsUnionFreeBranches(t *testing.T) {
	seed := EdgeRel("G", 1)
	step := Compose(&Var{Name: "X"}, &Filter{Cond: EqConst{Col: ColSrc, Val: 2}, T: &Var{Name: "E"}})
	guarded := &Antijoin{L: Compose(&Var{Name: "X"}, &Var{Name: "E"}), R: &Union{L: &Var{Name: "B"}, R: &Var{Name: "S"}}}
	d := mustDecompose(t, &Fixpoint{X: "X", Body: UnionOf([]Term{seed, step, guarded})})
	if d.Const != seed {
		t.Fatalf("constant part %s is a copy of the body's seed", d.Const)
	}
	if len(d.PhiBranches) != 2 || d.PhiBranches[0] != step || d.PhiBranches[1] != guarded {
		t.Fatalf("φ branches %v are not the body's own subterms", d.PhiBranches)
	}

	a, b := &Var{Name: "A"}, &Var{Name: "B"}
	c := &Filter{Cond: EqConst{Col: ColTrg, Val: 3}, T: &Var{Name: "C"}}
	filtered := &Filter{Cond: EqConst{Col: ColSrc, Val: 1}, T: &Union{L: a, R: b}}
	joined := &Join{L: &Union{L: a, R: b}, R: c}
	for _, tc := range []struct {
		t    Term
		want []string
	}{
		{filtered, []string{"σ[src=1](A)", "σ[src=1](B)"}},
		{joined, []string{"(A ⋈ σ[trg=3](C))", "(B ⋈ σ[trg=3](C))"}},
		{&Join{L: c, R: joined}, []string{"(σ[trg=3](C) ⋈ (A ⋈ σ[trg=3](C)))", "(σ[trg=3](C) ⋈ (B ⋈ σ[trg=3](C)))"}},
	} {
		got := normalizeBranches(tc.t)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d branches %v, want %v", tc.t, len(got), got, tc.want)
		}
		for i, br := range got {
			if br.String() != tc.want[i] {
				t.Fatalf("%s: branch %d = %s, want %s", tc.t, i, br, tc.want[i])
			}
			Walk(br, func(s Term) bool {
				if f, ok := s.(*Filter); ok && f.String() == c.String() && f != c {
					t.Fatalf("%s: branch %s copies the union-free operand %s", tc.t, br, c)
				}
				return true
			})
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

// TestEmptyDeltaLoopBuildsNoIndex: a fixpoint loop seeded with nothing —
// a Ps_plw worker whose seed partition is empty — neither evaluates φ's
// constant operands nor indexes them. Indexes are built lazily by the
// first step that probes them, and a step on an empty delta probes
// nothing.
func TestEmptyDeltaLoopBuildsNoIndex(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	env := NewEnv()
	for _, name := range []string{"E", "F"} {
		r := NewRelation(ColSrc, ColTrg)
		for r.Len() < n {
			r.Add([]Value{Value(rng.Intn(n)), Value(rng.Intn(n))})
		}
		env.Bind(name, r)
	}
	x := &Var{Name: "X"}
	fp := &Fixpoint{X: "X", Body: &Union{L: &Var{Name: "E"}, R: &Union{
		L: Compose(x, &Var{Name: "E"}),
		R: Compose(x, &Var{Name: "F"}),
	}}}
	d, err := Decompose(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PhiBranches) != 2 {
		t.Fatalf("φ has %d branches, want 2", len(d.PhiBranches))
	}
	ev := NewEvaluator(env)
	ev.Parallel = 2
	defer ev.Close()
	loop := ev.NewFixpointLoop(d, NewRelation(ColSrc, ColTrg), env)
	defer loop.Close()
	added, err := loop.Step(nil)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("a step on an empty delta added %d rows", added)
	}
	if ev.Stats.IndexBuilds != 0 || ev.Stats.OpTuples != 0 {
		t.Fatalf("empty-delta loop paid %d index builds, %d operand rows; want none",
			ev.Stats.IndexBuilds, ev.Stats.OpTuples)
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

// TestSealedRelationSharesConstantOperands: a constant operand read from
// one sealed relation is evaluated and indexed once and served to every
// later evaluator that reads the relation, whatever its size — all of
// them, even together larger than the relation, under a budget of 0; an
// evaluator probing the shared index charges its gauge as a builder would
// until Close; an unsealed relation's operands are evaluated per
// evaluator, and a sealed relation refuses mutation.
func TestSealedRelationSharesConstantOperands(t *testing.T) {
	const n = 200
	chain := func() *Relation {
		e := NewRelation(ColSrc, ColTrg)
		for i := 0; i < n; i++ {
			e.Add([]Value{Value(i), Value(i + 1)})
		}
		return e
	}
	// Two constant operands of E: ρ_src(E) on the left of X, ρ_trg(E) on
	// its right. Together they hold 2n rows, twice the relation's own.
	e := &Var{Name: "E"}
	x := &Var{Name: "X"}
	fp := &Fixpoint{X: "X", Body: &Union{L: e, R: &Union{L: Compose(x, e), R: Compose(e, x)}}}
	run := func(env *Env) (*Relation, int) {
		t.Helper()
		ev := NewEvaluator(env)
		defer ev.Close()
		got, err := ev.Eval(fp)
		if err != nil {
			t.Fatal(err)
		}
		return got, ev.Stats.OpTuples
	}

	plain := NewEnv()
	plain.Bind("E", chain())
	want, first := run(plain)
	if _, again := run(plain); again != first {
		t.Fatalf("unsealed relation: operand rows %d then %d, want equal", first, again)
	}

	sealed := chain()
	sealed.Seal(0)
	env := NewEnv()
	env.Bind("E", sealed)
	got1, rows1 := run(env)
	got2, rows2 := run(env)
	if !got1.Equal(want) || !got2.Equal(want) {
		t.Fatalf("sealed relation changed the result: %d and %d rows, want %d", got1.Len(), got2.Len(), want.Len())
	}
	if rows1 != first || rows2 != first-2*n {
		t.Fatalf("operand rows %d then %d, want %d then %d (both operands of %d rows served from the memo)",
			rows1, rows2, first, first-2*n, n)
	}
	if st := sealed.memo.Stats(); st.Entries != 2 || st.Evictions != 0 || st.Hits != 2 {
		t.Fatalf("memo %+v; want both derived operands kept and each served once", st)
	}

	// A closure reads one constant operand of E, which the memo keeps with
	// its index: an evaluator after the first builds no index, and its
	// gauge carries the charge a builder's carries while the loop runs and
	// nothing after Close.
	closure := ClosureLR("X", e)
	d, err := Decompose(closure)
	if err != nil {
		t.Fatal(err)
	}
	shared := chain()
	shared.Seal(0)
	cenv := NewEnv()
	cenv.Bind("E", shared)
	step := func() (EvalStats, int64, *MemGauge) {
		t.Helper()
		g := NewMemGauge(0, "")
		ev := NewEvaluator(cenv)
		ev.Gauge = g
		ev.Parallel = 1
		loop := ev.NewFixpointLoop(d, shared, cenv)
		for {
			added, err := loop.Step(nil)
			if err != nil {
				t.Fatal(err)
			}
			if added == 0 {
				break
			}
		}
		if got := loop.X().Materialize(); got.Len() != n*(n+1)/2 {
			t.Fatalf("closure of a %d-edge chain: %d rows, want %d", n, got.Len(), n*(n+1)/2)
		}
		held := g.Used()
		loop.Close()
		ev.Close()
		return ev.Stats, held, g
	}
	builder, builderHeld, _ := step()
	prober, proberHeld, g := step()
	if builder.IndexBuilds != 1 {
		t.Fatalf("first evaluator built %d indexes, want 1", builder.IndexBuilds)
	}
	if prober.IndexBuilds != 0 || prober.IndexReuses == 0 {
		t.Fatalf("second evaluator: %d index builds, %d reuses; want 0 builds and the shared index reused",
			prober.IndexBuilds, prober.IndexReuses)
	}
	if proberHeld != builderHeld || proberHeld < int64(n)*IndexRowBytes {
		t.Fatalf("gauge holds %d B while probing the shared index, %d B while building it; want equal, with the index's %d B",
			proberHeld, builderHeld, int64(n)*IndexRowBytes)
	}
	if g.Used() != 0 {
		t.Fatalf("gauge holds %d B after Close", g.Used())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Add to a sealed relation did not panic")
		}
	}()
	sealed.Add([]Value{-1, -2})
}

// hubGraph returns the k+k edges a_i → hub → b_j, whose composition with
// itself has k² rows.
func hubGraph(k int) *Relation {
	e := NewRelation(ColSrc, ColTrg)
	const hub = 0
	for i := 1; i <= k; i++ {
		e.Add([]Value{Value(i), hub})
		e.Add([]Value{hub, Value(1000 + i)})
	}
	return e
}

// TestSealedRelationKeepsLargerOperand: an operand derived from a sealed
// relation is kept even when it holds more rows than the relation itself,
// and a later evaluator reads the same rows from the memo.
func TestSealedRelationKeepsLargerOperand(t *testing.T) {
	const k = 20
	e := &Var{Name: "E"}
	// µ(X = E ∪ X∘(E∘E)): the constant operand ρ_src(E∘E) has k² rows.
	fp := &Fixpoint{X: "X", Body: &Union{L: e, R: Compose(&Var{Name: "X"}, Compose(e, e))}}
	plain := NewEnv()
	plain.Bind("E", hubGraph(k))
	want, err := Eval(fp, plain)
	if err != nil {
		t.Fatal(err)
	}
	sealed := hubGraph(k)
	sealed.Seal(0)
	env := NewEnv()
	env.Bind("E", sealed)
	for i := 0; i < 2; i++ {
		got, err := Eval(fp, env)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("run %d over the sealed relation: %d rows, want %d", i, got.Len(), want.Len())
		}
	}
	largest := 0
	for _, en := range sealed.memo.m {
		largest = max(largest, en.op.rel.Len())
	}
	if largest != k*k || largest <= sealed.Len() {
		t.Fatalf("largest kept operand has %d rows, want the %d of E∘E, above E's %d", largest, k*k, sealed.Len())
	}
	if st := sealed.memo.Stats(); st.Hits == 0 {
		t.Fatalf("the second run derived every operand again: %+v", st)
	}
}

// TestSealedRelationEvictsColdest: under a budget, the memo keeps every
// newcomer and evicts the least recently used entries until it fits —
// an entry served since it was kept is warmer than one that was not — and
// a newcomer larger than the whole budget is kept alone. An entry asked
// for at another state is dropped.
func TestSealedRelationEvictsColdest(t *testing.T) {
	rows := func(n int) *Relation {
		r := NewRelation(ColSrc, ColTrg)
		for i := 0; i < n; i++ {
			r.Add([]Value{Value(i), Value(i)})
		}
		return r
	}
	each := AccRowBytes(2) * 10
	m := NewOperandMemo(2*each + each/2) // two entries of 10 rows fit, three do not
	m.Put("a", "", rows(10))
	m.Put("b", "", rows(10))
	if m.Get("a", "") == nil {
		t.Fatal("a was not kept")
	}
	m.Put("c", "", rows(10))
	if m.Get("b", "") != nil || m.Get("a", "") == nil || m.Get("c", "") == nil {
		t.Fatal("want b, the coldest, evicted and a and c kept")
	}
	if st := m.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Bytes != 2*each {
		t.Fatalf("stats %+v; want 1 eviction, 2 entries of %d B", st, 2*each)
	}
	big := m.Put("d", "", rows(100))
	if m.Get("d", "") != big || m.Get("a", "") != nil || m.Get("c", "") != nil {
		t.Fatal("want the over-budget newcomer kept alone")
	}
	if st := m.Stats(); st.Entries != 1 || st.Bytes != 10*each || st.Evictions != 3 {
		t.Fatalf("stats %+v; want d alone, %d B, 3 evictions", st, 10*each)
	}
	if m.Get("d", "later") != nil {
		t.Fatal("an entry was served at another state")
	}
	if st := m.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 3 {
		t.Fatalf("stats %+v; want the stale entry dropped, uncounted as an eviction", st)
	}
	m.Put("e", "", rows(10))
	m.Flush()
	if st := m.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Flush left %+v", st)
	}
}

// TestSealedRelationConcurrentEviction: two evaluators probe one sealed
// relation at once under a one-byte budget, so every operand one of them
// keeps evicts the other's; each still reads the unsealed result, and
// the memo ends charged for only what it holds.
func TestSealedRelationConcurrentEviction(t *testing.T) {
	const n = 300
	e := &Var{Name: "E"}
	x := &Var{Name: "X"}
	fp := &Fixpoint{X: "X", Body: &Union{L: e, R: &Union{L: Compose(x, e), R: Compose(e, x)}}}
	chain := func() *Relation {
		r := NewRelation(ColSrc, ColTrg)
		for i := 0; i < n; i++ {
			r.Add([]Value{Value(i), Value((i*7 + 1) % n)})
		}
		return r
	}
	plain := NewEnv()
	plain.Bind("E", chain())
	want, err := Eval(fp, plain)
	if err != nil {
		t.Fatal(err)
	}
	sealed := chain()
	sealed.Seal(1)
	env := NewEnv()
	env.Bind("E", sealed)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				g := NewMemGauge(0, "")
				ev := NewEvaluator(env)
				ev.Gauge = g
				got, err := ev.Eval(fp)
				ev.Close()
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(want) {
					errs <- fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
					return
				}
				if g.Used() != 0 {
					errs <- fmt.Errorf("evaluator gauge holds %d B after Close", g.Used())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := sealed.memo.Stats()
	if st.Evictions == 0 || st.Entries > 1 {
		t.Fatalf("memo %+v; want evictions and at most one entry kept", st)
	}
	var held int64
	for _, en := range sealed.memo.m {
		held += en.bytes + en.op.bytes
	}
	if held+sealed.self.bytes != st.Bytes {
		t.Fatalf("memo gauge holds %d B, its entries and E's own indexes %d B", st.Bytes, held+sealed.self.bytes)
	}
}
