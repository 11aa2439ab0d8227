package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// This file holds testing/quick property tests on the core data structures
// and invariants.

// smallCols generates random small sorted column sets for quick tests.
type smallCols []string

func (smallCols) Generate(rng *rand.Rand, size int) reflect.Value {
	all := []string{"a", "b", "c", "d", "e"}
	n := 1 + rng.Intn(4)
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		c := all[rng.Intn(len(all))]
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return reflect.ValueOf(smallCols(SortCols(out)))
}

func TestQuickColsAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	// Union is commutative and contains both operands.
	if err := quick.Check(func(a, b smallCols) bool {
		u1 := ColsUnion([]string(a), []string(b))
		u2 := ColsUnion([]string(b), []string(a))
		if !ColsEqual(u1, u2) {
			return false
		}
		for _, c := range a {
			if ColIndex(u1, c) < 0 {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
	// a = (a∩b) ∪ (a\b), disjointly.
	if err := quick.Check(func(a, b smallCols) bool {
		inter := ColsIntersect([]string(a), []string(b))
		minus := ColsMinus([]string(a), []string(b))
		if len(ColsIntersect(inter, minus)) != 0 {
			return false
		}
		return ColsEqual(ColsUnion(inter, minus), []string(a))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDictInternStable(t *testing.T) {
	d := NewDict()
	if err := quick.Check(func(s string) bool {
		v1 := d.Intern(s)
		v2 := d.Intern(s)
		if v1 != v2 {
			return false
		}
		got, ok := d.Lookup(s)
		return ok && got == v1 && d.String(v1) == s
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickHashDeterministic(t *testing.T) {
	if err := quick.Check(func(a, b, c int64) bool {
		row := []Value{a, b, c}
		h1 := HashValuesAt(row, []int{0, 2})
		h2 := HashValuesAt([]Value{a, 99, c}, []int{0, 2})
		return h1 == h2 // only the selected positions matter
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitRelationPartitionsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	if err := quick.Check(func(nRows uint8, parts uint8) bool {
		n := int(parts)%6 + 1
		r := NewRelation(ColSrc, ColTrg)
		for i := 0; i < int(nRows); i++ {
			r.Add([]Value{Value(rng.Intn(20)), Value(rng.Intn(20))})
		}
		for _, byCols := range [][]string{nil, {ColSrc}, {ColSrc, ColTrg}} {
			merged := NewRelation(ColSrc, ColTrg)
			total := 0
			for _, p := range SplitRelation(r, n, byCols) {
				total += p.Len()
				merged.UnionInPlace(p)
			}
			if total != r.Len() || !merged.Equal(r) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickRowKeyRoundTrip: RowKey loses nothing — decoding it with the
// row's arity gives the row back, for random rows of random arity.
func TestQuickRowKeyRoundTrip(t *testing.T) {
	if err := quick.Check(func(a, b, c, d int64, arity uint8) bool {
		row := []Value{a, b, c, d}[:1+int(arity)%4]
		key := RowKey(row)
		if len(key) != 8*len(row) {
			return false
		}
		got := unpackRowKey(key, len(row))
		for i := range row {
			if got[i] != row[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickRowKeyInjective: for rows of equal arity, RowKey(a) = RowKey(b)
// exactly when a = b — the property a string-keyed row set's dedup relies
// on. b copies a except at the positions mask selects, so equal rows and
// rows differing in one position are both common.
func TestQuickRowKeyInjective(t *testing.T) {
	if err := quick.Check(func(a, b [4]int64, mask, arity uint8) bool {
		n := 1 + int(arity)%4
		ra, rb := make([]Value, n), make([]Value, n)
		same := true
		for i := range ra {
			ra[i], rb[i] = a[i], a[i]
			if mask&(1<<i) != 0 {
				rb[i] = b[i]
				same = same && a[i] == b[i]
			}
		}
		return (RowKey(ra) == RowKey(rb)) == same
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickRelationUnionLaws: |a∪b| ≤ |a|+|b|, a ⊆ a∪b, idempotence.
func TestQuickRelationUnionLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	if err := quick.Check(func(na, nb uint8) bool {
		a := randomBinaryRelation(rng, int(na)%30, 8)
		b := randomBinaryRelation(rng, int(nb)%30, 8)
		u := a.Union(b)
		if u.Len() > a.Len()+b.Len() {
			return false
		}
		for _, row := range a.Rows() {
			if !u.Has(row) {
				return false
			}
		}
		return u.Union(u).Equal(u)
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinAssociative: (a⋈b)⋈c = a⋈(b⋈c) on random binary relations
// with overlapping schemas.
func TestQuickJoinAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(654))
	for trial := 0; trial < 60; trial++ {
		a := randomBinaryRelation(rng, 15, 6)                        // (src,trg)
		b, _ := randomBinaryRelation(rng, 15, 6).Rename(ColSrc, "m") // (m,trg)→ joins a on trg
		bb, _ := b.Rename(ColTrg, "u")                               // (m,u)
		c, _ := randomBinaryRelation(rng, 15, 6).Rename(ColTrg, "u") // (src,u)
		l := a.Join(bb).Join(c)
		r := a.Join(bb.Join(c))
		if !l.Equal(r) {
			t.Fatalf("trial %d: join not associative", trial)
		}
	}
}

// TestQuickFilterDistributesOverUnion: σ(a∪b) = σ(a)∪σ(b).
func TestQuickFilterDistributesOverUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	for trial := 0; trial < 60; trial++ {
		a := randomBinaryRelation(rng, 20, 6)
		b := randomBinaryRelation(rng, 20, 6)
		cond := EqConst{Col: ColSrc, Val: Value(rng.Intn(6))}
		l := a.Union(b).Filter(cond)
		r := a.Filter(cond).Union(b.Filter(cond))
		if !l.Equal(r) {
			t.Fatalf("trial %d: filter does not distribute", trial)
		}
	}
}

// randomBinaryTerm builds a random µ-RA term over binary (src,trg)
// relations: every production preserves the schema, so arbitrarily nested
// terms stay well-formed. The grammar covers all operators the rewriter
// emits: union, composition (join + renames + anti-projection), antijoin,
// filters, src/trg swap and linear fixpoints in both directions.
func randomBinaryTerm(rng *rand.Rand, depth int, fresh *int) Term {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return &Var{Name: "E"}
		case 1:
			return &Var{Name: "S"}
		default:
			return NewConstTuple([]string{ColSrc, ColTrg},
				[]Value{Value(rng.Intn(8)), Value(rng.Intn(8))})
		}
	}
	sub := func() Term { return randomBinaryTerm(rng, depth-1, fresh) }
	switch rng.Intn(8) {
	case 0:
		return &Union{L: sub(), R: sub()}
	case 1:
		return Compose(sub(), sub())
	case 2:
		return &Antijoin{L: sub(), R: sub()}
	case 3:
		return &Filter{Cond: EqConst{Col: ColSrc, Val: Value(rng.Intn(8))}, T: sub()}
	case 4:
		return &Filter{Cond: NeConst{Col: ColTrg, Val: Value(rng.Intn(8))}, T: sub()}
	case 5:
		return SwapSrcTrg(sub())
	case 6:
		*fresh++
		return ClosureLR(fmt.Sprintf("X%d", *fresh), sub())
	default:
		*fresh++
		return ClosureRL(fmt.Sprintf("X%d", *fresh), sub())
	}
}

// TestQuickStreamingMatchesMaterializing is the central equivalence
// property of the streaming data plane: over randomized graphs and
// randomized terms (including nested fixpoints), the iterator pipeline
// and the seed's materializing evaluator produce identical relations.
func TestQuickStreamingMatchesMaterializing(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 300; trial++ {
		env := NewEnv()
		env.Bind("E", randomBinaryRelation(rng, 2+rng.Intn(30), 8))
		env.Bind("S", randomBinaryRelation(rng, 1+rng.Intn(10), 8))
		fresh := 0
		term := randomBinaryTerm(rng, 1+rng.Intn(3), &fresh)

		streaming := NewEvaluator(env)
		streaming.MaxIter = 200
		got, gotErr := streaming.Eval(term)

		reference := NewEvaluator(env)
		reference.Materializing = true
		reference.MaxIter = 200
		want, wantErr := reference.Eval(term)

		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("trial %d: error mismatch: streaming=%v materializing=%v\nterm: %s",
				trial, gotErr, wantErr, term)
		}
		if gotErr != nil {
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: streaming %v ≠ materializing %v\nterm: %s",
				trial, got, want, term)
		}
	}
}

// TestQuickStreamingFixpointStats: the streaming fixpoint must report the
// same iteration count and tuple production as the reference loop — the
// counters the cost-model experiments consume.
func TestQuickStreamingFixpointStats(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		env := NewEnv()
		env.Bind("E", randomBinaryRelation(rng, 2+rng.Intn(30), 7))
		env.Bind("S", randomBinaryRelation(rng, 1+rng.Intn(6), 7))
		term := ClosureLR("X", &Union{L: &Var{Name: "S"}, R: &Var{Name: "E"}})

		streaming := NewEvaluator(env)
		if _, err := streaming.Eval(term); err != nil {
			t.Fatal(err)
		}
		reference := NewEvaluator(env)
		reference.Materializing = true
		if _, err := reference.Eval(term); err != nil {
			t.Fatal(err)
		}
		if streaming.Stats.FixpointIterations != reference.Stats.FixpointIterations ||
			streaming.Stats.TuplesProduced != reference.Stats.TuplesProduced ||
			streaming.Stats.MaxDelta != reference.Stats.MaxDelta {
			t.Fatalf("trial %d: stats diverge: streaming=%+v materializing=%+v",
				trial, streaming.Stats, reference.Stats)
		}
	}
}

// TestQuickDiffStreamMatchesDiff: the streaming set difference and
// intersection (SemijoinStream over a build relation of the probe's
// schema) agree with the materializing Relation.Diff on random relations.
func TestQuickDiffStreamMatchesDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		a := randomBinaryRelation(rng, rng.Intn(40), 6)
		b := randomBinaryRelation(rng, rng.Intn(40), 6)
		want := a.Diff(b)
		if got := Materialize(SemijoinStream(ScanRelation(a), b, false, nil)); !got.Equal(want) {
			t.Fatalf("trial %d: streamed a \\ b %v ≠ Diff %v", trial, got, want)
		}
		want = a.Diff(want)
		if got := Materialize(SemijoinStream(ScanRelation(a), b, true, nil)); !got.Equal(want) {
			t.Fatalf("trial %d: streamed a ∩ b %v ≠ a \\ (a \\ b) %v", trial, got, want)
		}
	}
}

// hashedRows is a tupleSet over a flat store whose rows are filed under
// caller-chosen hashes, standing in for collisions FNV would take 2^32
// rows to produce. del is Relation.Remove's swap-remove: the last row
// moves into the hole and its slot is re-referenced.
type hashedRows struct {
	s    tupleSet
	data []Value
	hs   []uint64
}

func (c *hashedRows) add(h uint64, row []Value) bool {
	c.s.growFor(len(c.hs) + 1)
	slot, found := c.s.lookup(h, row, c.data, len(row))
	if found {
		return false
	}
	c.data = append(c.data, row...)
	c.hs = append(c.hs, h)
	c.s.claim(slot, h, int32(len(c.hs)))
	return true
}

func (c *hashedRows) has(h uint64, row []Value) bool {
	_, found := c.s.lookup(h, row, c.data, len(row))
	return found
}

func (c *hashedRows) del(h uint64, row []Value) bool {
	a := len(row)
	slot, found := c.s.lookup(h, row, c.data, a)
	if !found {
		return false
	}
	idx, last := c.s.rowAt(slot), len(c.hs)-1
	c.s.remove(slot)
	if idx != last {
		lastRow := c.data[last*a : (last+1)*a]
		lslot, lfound := c.s.lookup(c.hs[last], lastRow, c.data, a)
		if !lfound {
			panic("hashedRows: set lost the last row")
		}
		copy(c.data[idx*a:], lastRow)
		c.hs[idx] = c.hs[last]
		c.s.reref(lslot, int32(idx+1))
	}
	c.data, c.hs = c.data[:last*a], c.hs[:last]
	return true
}

// TestTupleSetCollisions drives the open-addressing row set through forced
// hash collisions: distinct rows sharing one hash, or only the 32-bit tag
// a slot keeps of it, must all be stored and found, duplicates must still
// be rejected, and removals, re-references and rehashes inside colliding
// runs must keep every other row findable.
func TestTupleSetCollisions(t *testing.T) {
	rowOf := func(i int) []Value { return []Value{Value(i), Value(i * 7)} }
	// check asserts that exactly rows [0, n) except the gone ones are
	// present under hash(i), and that re-adding a present one is refused.
	check := func(t *testing.T, c *hashedRows, n int, hash func(int) uint64, gone map[int]bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			if c.has(hash(i), rowOf(i)) == gone[i] {
				t.Fatalf("row %d: present=%v, removed=%v", i, !gone[i], gone[i])
			}
			if !gone[i] && c.add(hash(i), rowOf(i)) {
				t.Fatalf("duplicate row %d accepted", i)
			}
		}
		if c.has(hash(n), rowOf(n)) {
			t.Fatal("absent row reported present under a colliding hash")
		}
	}
	fill := func(t *testing.T, n int, hash func(int) uint64) *hashedRows {
		c := &hashedRows{}
		for i := 0; i < n; i++ {
			if !c.add(hash(i), rowOf(i)) {
				t.Fatalf("colliding row %d rejected as duplicate", i)
			}
		}
		return c
	}
	t.Run("one full hash", func(t *testing.T) {
		hash := func(int) uint64 { return 0xdeadbeef }
		check(t, fill(t, 50, hash), 50, hash, nil)
	})
	t.Run("one tag, distinct high bits", func(t *testing.T) {
		// Same tag and home slot in every slot word; only the row values
		// tell the entries apart.
		hash := func(i int) uint64 { return uint64(i+1)<<32 | 0xdeadbeef }
		check(t, fill(t, 50, hash), 50, hash, nil)
	})
	t.Run("remove and reref inside a colliding run", func(t *testing.T) {
		// Rows 0–11 share home slot 3, half of them one tag too; rows
		// 12–19 home at slot 4 and continue the run to slot 22; rows
		// 20–23 sit at their own home slots 23–26, directly behind it,
		// where a removal in the run must not shift them. The table
		// stays at 32 slots, so the homes stay put.
		hash := func(i int) uint64 {
			switch {
			case i < 6:
				return uint64(i+1)<<32 | 3
			case i < 12:
				return uint64(i)<<5 | 3
			case i < 20:
				return uint64(i)<<5 | 4
			default:
				return uint64(i)<<5 | uint64(i+3)
			}
		}
		const n = 24
		c := fill(t, n, hash)
		gone := map[int]bool{}
		// Mid-run removals shift later entries back; removing a row other
		// than the last re-references the last row's slot.
		for _, i := range []int{19, 2, 7, 0, 13, 11, 5, 21} {
			if !c.del(hash(i), rowOf(i)) {
				t.Fatalf("row %d not removed", i)
			}
			gone[i] = true
			check(t, c, n, hash, gone)
		}
		if c.s.n != n-len(gone) {
			t.Fatalf("set counts %d rows, want %d", c.s.n, n-len(gone))
		}
	})
	t.Run("rehash carries colliding words", func(t *testing.T) {
		// Tag-equal groups of 8 whose tags agree on the low 16 bits too,
		// so every doubling up to 2^16 slots rehashes whole runs.
		hash := func(i int) uint64 { return uint64(i%8+1)<<32 | uint64(i/8)<<16 | 0x5a5a }
		c := fill(t, 400, hash)
		if len(c.s.slots) < 512 {
			t.Fatalf("table holds %d slots; the fill should have rehashed past 512", len(c.s.slots))
		}
		check(t, c, 400, hash, nil)
	})
}

// TestJoinIndexCollisions: a JoinIndex bucket holding rows of distinct
// keys (a hash collision) must filter probes by value, never returning a
// row whose key differs from the probe.
func TestJoinIndexCollisions(t *testing.T) {
	// Hand-build an index whose single bucket mixes keys 1 and 2, as a
	// real 64-bit collision would.
	ix := &JoinIndex{
		at:      []int{0},
		data:    []Value{1, 10, 2, 20, 1, 11},
		arity:   2,
		nrows:   3,
		buckets: map[uint64][]int32{HashValues([]Value{1}): {0, 1, 2}},
	}
	got := ix.Matches(nil, []Value{1})
	if len(got) != 2 || got[0][1] != 10 || got[1][1] != 11 {
		t.Fatalf("collision probe returned %v, want rows with key 1 only", got)
	}
	if !ix.Contains([]Value{1}) {
		t.Fatal("Contains missed key 1")
	}
	// Key 2 hashes elsewhere (bucket missing): must report absent rather
	// than scan the wrong bucket.
	if ix.Contains([]Value{3}) {
		t.Fatal("Contains fabricated key 3")
	}
}

// TestQuickDropCommutes: dropping two columns in either order agrees.
func TestQuickDropCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 40; trial++ {
		r := NewRelation("a", "b", "c")
		for i := 0; i < 25; i++ {
			r.Add([]Value{Value(rng.Intn(4)), Value(rng.Intn(4)), Value(rng.Intn(4))})
		}
		ab, err := r.Drop("a")
		if err != nil {
			t.Fatal(err)
		}
		ab, err = ab.Drop("b")
		if err != nil {
			t.Fatal(err)
		}
		ba, err := r.Drop("b")
		if err != nil {
			t.Fatal(err)
		}
		ba, err = ba.Drop("a")
		if err != nil {
			t.Fatal(err)
		}
		both, err := r.Drop("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if !ab.Equal(ba) || !ab.Equal(both) {
			t.Fatalf("trial %d: drop order matters", trial)
		}
	}
}

// bagRootedBranches returns φ branches over X(src,trg) whose root chains
// are the shapes a bag-rooted pipeline is built for: an anti-projection
// over an anti-projection, a union, a rename over an anti-projection, and
// an anti-projection under the two operators that only drop probe rows —
// an antijoin, and a join whose build side adds no column (an
// intersection with H(src,trg), a semijoin with K(src)). E3 is ternary
// (src,trg,w) so that dropping w merges tuples that dropping the join
// column alone would keep apart.
func bagRootedBranches() map[string]Term {
	step := func(edges Term) Term { // (@m,src,trg,w): X ∘ edges, before any projection
		return &Join{
			L: &Rename{From: ColTrg, To: "@m", T: &Var{Name: "X"}},
			R: &Rename{From: ColSrc, To: "@m", T: edges},
		}
	}
	e3 := &Var{Name: "E3"}
	bag := NewAntiProject(step(e3), "@m", "w")
	return map[string]Term{
		"drop-over-drop": NewAntiProject(NewAntiProject(step(e3), "@m"), "w"),
		"union-rooted": &Union{
			L: NewAntiProject(step(e3), "@m", "w"),
			R: NewAntiProject(step(&Var{Name: "F3"}), "w", "@m"),
		},
		"rename-over-drop": &Rename{From: "u", To: ColTrg,
			T: NewAntiProject(step(&Rename{From: ColTrg, To: "u", T: e3}), "@m", "w")},
		"antijoin-rooted":     &Antijoin{L: bag, R: &Var{Name: "H"}},
		"intersection-rooted": &Join{L: bag, R: &Var{Name: "H"}},
		"semijoin-rooted":     &Join{L: bag, R: &Var{Name: "K"}},
	}
}

// randomUnaryRelation returns up to n random rows over (src).
func randomUnaryRelation(rng *rand.Rand, n, domain int) *Relation {
	r := NewRelation(ColSrc)
	for i := 0; i < n; i++ {
		r.Add([]Value{Value(rng.Intn(domain))})
	}
	return r
}

func randomTernaryRelation(rng *rand.Rand, n, domain int) *Relation {
	r := NewRelation(ColSrc, ColTrg, "w")
	for i := 0; i < n; i++ {
		r.Add([]Value{Value(rng.Intn(domain)), Value(rng.Intn(domain)), Value(rng.Intn(3))})
	}
	return r
}

// TestQuickBagRootedSinksMatchReference: a pipeline whose root chain of
// anti-projections, unions, renames, antijoins and column-preserving joins
// carries no inline distinct, drained
// into each of the sinks that deduplicate — the fixpoint Accumulator, the
// relation of EvalPhiDelta, a Pgld step's per-owner shuffle filters,
// Materialize — yields the rows of the materializing reference.
func TestQuickBagRootedSinksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	for name, branch := range bagRootedBranches() {
		for trial := 0; trial < 60; trial++ {
			env := NewEnv()
			env.Bind("E3", randomTernaryRelation(rng, 2+rng.Intn(40), 7))
			env.Bind("F3", randomTernaryRelation(rng, 1+rng.Intn(20), 7))
			env.Bind("H", randomBinaryRelation(rng, rng.Intn(30), 7))
			env.Bind("K", randomUnaryRelation(rng, rng.Intn(6), 7))
			init := randomBinaryRelation(rng, 1+rng.Intn(10), 7)
			d := &Decomposed{X: "X", Const: &Var{Name: "S"}, PhiBranches: []Term{branch}}
			reference := NewEvaluator(env)
			reference.Materializing = true
			streaming := NewEvaluator(env)

			// Sink 1: the accumulator of the semi-naive loop.
			want, err := reference.RunFixpoint(d, init, env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := streaming.RunFixpoint(d, init, env)
			if err != nil {
				t.Fatal(err)
			}
			if !SameRows(got, want) {
				t.Fatalf("%s trial %d: fixpoint %v ≠ reference %v", name, trial, got, want)
			}

			// Sink 2: EvalPhiDelta's delta relation.
			wantStep, err := reference.EvalPhiDelta(d, init, env)
			if err != nil {
				t.Fatal(err)
			}
			gotStep, err := streaming.EvalPhiDelta(d, init, env)
			if err != nil {
				t.Fatal(err)
			}
			if !SameRows(gotStep, wantStep) {
				t.Fatalf("%s trial %d: φ(init) %v ≠ reference %v", name, trial, gotStep, wantStep)
			}

			// Sink 3: the per-owner shuffle filters. Stepped as Pgld steps,
			// on one worker (every candidate its own) and on three (most
			// candidates routed through a filter to a peer), the loops
			// reach the reference fixpoint.
			for _, w := range []int{1, 3} {
				got, loops, evs := lockstepFixpoint(t, d, init, env, w, nil)
				closeLockstep(loops, evs)
				if !SameRows(got, want) {
					t.Fatalf("%s trial %d: %d-worker exchange-stepped fixpoint %v ≠ reference %v", name, trial, w, got, want)
				}
			}

			// Sink 4: Materialize at the root of a plain evaluation.
			bound := env.with("X", init)
			wantRel, err := NewEvaluator(bound).evalMat(branch, bound)
			if err != nil {
				t.Fatal(err)
			}
			gotRel, err := NewEvaluator(bound).Eval(branch)
			if err != nil {
				t.Fatal(err)
			}
			if !SameRows(gotRel, wantRel) {
				t.Fatalf("%s trial %d: materialized %v ≠ reference %v", name, trial, gotRel, wantRel)
			}
		}
	}
}

// lockstep is an in-memory Exchange among n FixpointLoops stepped
// together, one goroutine each, as Pgld's workers are: ShipInto deposits a
// worker's windows for its peers, waits until every worker has deposited,
// absorbs the windows addressed to it, and waits again, so no worker's
// next step evicts from a filter whose windows a peer still reads.
type lockstep struct {
	n       int
	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     int
	inbox   [][]*Relation // by receiver: the windows routed to it this round
}

// barrier returns once all n workers have called it in the current round.
func (ls *lockstep) barrier() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	gen := ls.gen
	if ls.arrived++; ls.arrived == ls.n {
		ls.arrived = 0
		ls.gen++
		ls.cond.Broadcast()
		return
	}
	for gen == ls.gen {
		ls.cond.Wait()
	}
}

// lockstepWorker is one worker's view of a lockstep exchange.
type lockstepWorker struct {
	ls   *lockstep
	rank int
}

func (w lockstepWorker) WorkerID() int   { return w.rank }
func (w lockstepWorker) NumWorkers() int { return w.ls.n }

func (w lockstepWorker) ShipInto(wins [][]*Relation, x *Accumulator) error {
	ls := w.ls
	ls.mu.Lock()
	for p, win := range wins {
		if p == w.rank && len(win) > 0 {
			ls.mu.Unlock()
			return fmt.Errorf("worker %d shipped %d windows to itself", p, len(win))
		}
		ls.inbox[p] = append(ls.inbox[p], win...)
	}
	ls.mu.Unlock()
	ls.barrier()
	ls.mu.Lock()
	mine := ls.inbox[w.rank]
	ls.inbox[w.rank] = nil
	ls.mu.Unlock()
	for _, r := range mine {
		x.Absorb(r)
	}
	ls.barrier()
	return nil
}

// lockstepFixpoint evaluates the fixpoint d from init as Pgld does, on w
// in-memory workers: init is split by row hash, each worker steps its own
// FixpointLoop on its own evaluator (under gauge g) through a lockstep
// exchange, and rounds go on until one adds nothing on any worker. It
// returns the union of the workers' X, and the loops and evaluators, still
// open, for the caller to inspect and close (closeLockstep).
func lockstepFixpoint(t *testing.T, d *Decomposed, init *Relation, env *Env, w int, g *MemGauge) (*Relation, []*FixpointLoop, []*Evaluator) {
	t.Helper()
	ls := &lockstep{n: w, inbox: make([][]*Relation, w)}
	ls.cond = sync.NewCond(&ls.mu)
	parts := SplitRelation(init, w, init.Cols())
	loops := make([]*FixpointLoop, w)
	evs := make([]*Evaluator, w)
	for i := range loops {
		evs[i] = NewEvaluator(env)
		evs[i].Gauge = g
		loops[i] = evs[i].NewFixpointLoop(d, parts[i], env)
	}
	for {
		added := make([]int, w)
		errs := make([]error, w)
		var wg sync.WaitGroup
		for i := range loops {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				added[i], errs[i] = loops[i].Step(lockstepWorker{ls: ls, rank: i})
			}(i)
		}
		wg.Wait()
		total := 0
		for i := range loops {
			if errs[i] != nil {
				closeLockstep(loops, evs)
				t.Fatal(errs[i])
			}
			total += added[i]
		}
		if total == 0 {
			break
		}
	}
	out := NewRelation(init.Cols()...)
	for _, l := range loops {
		out.AddBatch(l.X().Materialize().AsBatch())
	}
	return out, loops, evs
}

// closeLockstep closes the loops and evaluators of a lockstep run.
func closeLockstep(loops []*FixpointLoop, evs []*Evaluator) {
	for i := range loops {
		loops[i].Close()
		evs[i].Close()
	}
}

// TestBagRootKeepsInteriorDistinct: only the root chain loses its inline
// distinct. The chain runs through antijoins and through joins whose build
// side adds no column; below the first other operator — a filter, or a
// join whose build side adds a column — the stream is a set again, which
// is what lets Materialize append a set-rooted pipeline without hashing
// it.
func TestBagRootKeepsInteriorDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	env := NewEnv()
	env.Bind("E3", randomTernaryRelation(rng, 40, 5))
	env.Bind("H", randomBinaryRelation(rng, 20, 5))
	ev := NewEvaluator(env)
	drop := NewAntiProject(&Var{Name: "E3"}, "w")
	for name, term := range map[string]Term{
		"anti-projection": drop,
		"antijoin":        &Antijoin{L: drop, R: &Var{Name: "H"}},
		"intersection":    &Join{L: drop, R: &Var{Name: "H"}},
	} {
		root, err := ev.stream(term, env, true)
		if err != nil {
			t.Fatal(err)
		}
		if IsSet(root) {
			t.Fatalf("a root %s still carries the inline distinct of the anti-projection on its chain", name)
		}
	}
	// E3(src,trg,w) as the build side adds w to drop(src,trg): the probe
	// leaves the chain and keeps its distinct.
	widening, err := ev.stream(&Join{L: drop, R: &Var{Name: "E3"}}, env, true)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSet(widening) {
		t.Fatal("an anti-projection probing a join whose build side adds a column lost its inline distinct")
	}
	interior, err := ev.stream(&Filter{Cond: NeConst{Col: ColSrc, Val: 0}, T: drop}, env, true)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSet(interior) {
		t.Fatal("an anti-projection under a filter lost its inline distinct")
	}
	got := Materialize(interior)
	if !got.deferred.Load() {
		t.Fatal("a set stream was hashed on materialization")
	}
	ref := NewEvaluator(env)
	ref.Materializing = true
	want, err := ref.Eval(&Filter{Cond: NeConst{Col: ColSrc, Val: 0}, T: drop})
	if err != nil {
		t.Fatal(err)
	}
	if !SameRows(got, want) {
		t.Fatalf("interior distinct: %v ≠ %v", got, want)
	}
}
