package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// chainRelation builds a path graph 0→1→…→n-1 as a (src,trg) relation: the
// worst case for semi-naive closure depth (n-1 iterations).
func chainRelation(n int) *Relation {
	r := NewRelationSized(n, ColSrc, ColTrg)
	for i := 0; i < n-1; i++ {
		r.Add([]Value{Value(i), Value(i + 1)})
	}
	return r
}

// sparseRelation builds a random sparse (src,trg) relation.
func sparseRelation(rng *rand.Rand, nodes, edges int) *Relation {
	r := NewRelationSized(edges, ColSrc, ColTrg)
	for i := 0; i < edges; i++ {
		r.Add([]Value{Value(rng.Intn(nodes)), Value(rng.Intn(nodes))})
	}
	return r
}

// BenchmarkFixpointDeepClosure is the fixpoint hot path of the engine: the
// transitive closure of a deep chain (knows+ on a path graph), which pays
// one semi-naive iteration per hop. This is the microbenchmark the
// streaming data plane is accountable to.
func BenchmarkFixpointDeepClosure(b *testing.B) {
	for _, n := range []int{64, 256} {
		edges := chainRelation(n)
		term := ClosureLR("X", &Var{Name: "E"})
		env := NewEnv()
		env.Bind("E", edges)
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Eval(term, env)
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() != n*(n-1)/2 {
					b.Fatalf("closure size = %d, want %d", out.Len(), n*(n-1)/2)
				}
			}
		})
	}
}

// BenchmarkFixpointSparseClosure measures the same loop on a random sparse
// graph: fewer iterations, much larger deltas per iteration.
func BenchmarkFixpointSparseClosure(b *testing.B) {
	edges := sparseRelation(rand.New(rand.NewSource(7)), 400, 800)
	term := ClosureLR("X", &Var{Name: "E"})
	env := NewEnv()
	env.Bind("E", edges)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(term, env); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanZeroFlattenCopies asserts the tentpole property of the flat
// storage: scanning a relation emits batches with zero per-batch
// row-flatten copies. The whole multi-batch drain costs a constant few
// allocations (iterator + batch header), independent of row count,
// because every batch is a view of the relation's backing array.
func TestScanZeroFlattenCopies(t *testing.T) {
	rel := chainRelation(BatchRowsFor(2)*4 + 5) // several batches per scan
	allocs := testing.AllocsPerRun(50, func() {
		it := ScanRelation(rel)
		rows := 0
		for b := it.Next(); b != nil; b = it.Next() {
			rows += b.Len()
		}
		if rows != rel.Len() {
			t.Fatalf("scan yielded %d rows, want %d", rows, rel.Len())
		}
	})
	// One allocation for the iterator; a flattening scan would pay one
	// buffer per batch (5 batches here) and fail this bound.
	if allocs > 2 {
		t.Fatalf("scan cost %.0f allocs, want <= 2 (zero per-batch flatten copies)", allocs)
	}
}

// TestFixpointReusesBatchBuffers asserts the free-list property of the
// fixpoint data path: operator output batches are taken once, in the first
// iteration, and every later iteration's pipelines reuse them — and no
// pipeline under a fixpoint root grows a buffer of its own (the inline
// distinct an anti-projection carries anywhere else).
func TestFixpointReusesBatchBuffers(t *testing.T) {
	term := ClosureLR("X", &Var{Name: "E"})
	poolAllocs := func(chain, parallel int) int {
		env := NewEnv()
		env.Bind("E", chainRelation(chain))
		ev := NewEvaluator(env)
		ev.Parallel = parallel
		if _, err := ev.Eval(term); err != nil {
			t.Fatal(err)
		}
		if ev.Stats.FixpointIterations < chain-1 {
			t.Fatalf("chain %d converged in %d iterations", chain, ev.Stats.FixpointIterations)
		}
		return ev.pool.allocs
	}
	// One pipeline per iteration: rename, join, anti-projection.
	if short, long := poolAllocs(4, 1), poolAllocs(300, 1); short != long || long > 3 {
		t.Fatalf("batch buffers allocated: %d over 3 iterations, %d over 299; want the same, at most 3", short, long)
	}

	// A warm step allocates per step, not per row: with every candidate
	// already in X, a delta of four batches costs what a delta of one batch
	// costs. A per-pipeline distinct would grow with the rows. E is a self
	// loop on every node, so φ(X) = X ∘ E = X for any delta.
	d, err := Decompose(term)
	if err != nil {
		t.Fatal(err)
	}
	step := BatchRowsFor(2)
	loops := NewRelation(ColSrc, ColTrg)
	for i := 0; i <= 4*step+1; i++ {
		loops.Add([]Value{Value(i), Value(i)})
	}
	env := NewEnv()
	env.Bind("E", loops)
	ev := NewEvaluator(env)
	ev.Parallel = 1
	defer ev.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stepAllocs := func(delta *Relation) float64 {
		const runs = 20
		var before, after runtime.MemStats
		total := uint64(0)
		for i := 0; i < runs; i++ {
			loop := ev.NewFixpointLoop(d, delta, env)
			runtime.ReadMemStats(&before)
			added, err := loop.Step(nil)
			runtime.ReadMemStats(&after)
			loop.Close()
			if err != nil || added != 0 {
				t.Fatalf("warm step: %d new rows, err %v", added, err)
			}
			total += after.Mallocs - before.Mallocs
		}
		return float64(total) / runs
	}
	delta := chainRelation(4*step + 1)
	stepAllocs(delta) // warm: indexes, pool
	if one, four := stepAllocs(delta.Slice(0, step)), stepAllocs(delta.Slice(0, 4*step)); four > one {
		t.Fatalf("a step over 4 batches cost %.0f allocs, over 1 batch %.0f; want no per-batch allocation", four, one)
	}
}

// BenchmarkParallelFixpoint measures the parallel delta probing against
// the sequential step on a workload with large deltas (dense random
// graph transitive closure).
func BenchmarkParallelFixpoint(b *testing.B) {
	edges := sparseRelation(rand.New(rand.NewSource(9)), 1500, 4500)
	term := ClosureLR("X", &Var{Name: "E"})
	env := NewEnv()
	env.Bind("E", edges)
	for _, workers := range []int{1, 0} {
		name := "sequential"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := NewEvaluator(env)
				ev.Parallel = workers
				if _, err := ev.Eval(term); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinIndexBuild measures the build side of the hash join — the
// index the first iteration of a large fixpoint pays for.
func BenchmarkJoinIndexBuild(b *testing.B) {
	rel := sparseRelation(rand.New(rand.NewSource(3)), 1<<18, 1<<17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := newJoinIndex(rel, []string{ColSrc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccumulatorAbsorb measures the fixpoint accumulator's batched
// insert path (the worker-pool drain target) and its one-shot exit
// materialization.
func BenchmarkAccumulatorAbsorb(b *testing.B) {
	rel := sparseRelation(rand.New(rand.NewSource(13)), 1<<18, 1<<17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewAccumulator(nil, ColSrc, ColTrg)
		a.Absorb(rel)
		if out := a.Materialize(); out.Len() != rel.Len() {
			b.Fatalf("materialized %d rows, want %d", out.Len(), rel.Len())
		}
	}
}

// BenchmarkAccumulatorEvict measures one eviction round of a budgeted
// accumulator: about 50 000 binary rows over its 32 shards, each shard
// sorted into a run of the round's spill file and its survivors' set
// rebuilt. Filling the accumulator and closing it are not timed.
func BenchmarkAccumulatorEvict(b *testing.B) {
	rel := sparseRelation(rand.New(rand.NewSource(17)), 1<<16, 50_000)
	g := NewMemGauge(1, b.TempDir())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := NewAccumulator(g, ColSrc, ColTrg)
		a.Absorb(rel)
		b.StartTimer()
		if n := a.EvictBelow(a.Mark()); n != rel.Len() {
			b.Fatalf("evicted %d rows, want %d", n, rel.Len())
		}
		b.StopTimer()
		a.Close()
		b.StartTimer()
	}
}

// BenchmarkFixpointPipelines compares the two evaluators the engine
// carries on the same deep-closure hot path: the streaming iterator
// pipeline with reusable join indexes (the default) against the seed's
// stage-by-stage materializing evaluator (the reference / ablation).
func BenchmarkFixpointPipelines(b *testing.B) {
	edges := chainRelation(192)
	term := ClosureLR("X", &Var{Name: "E"})
	env := NewEnv()
	env.Bind("E", edges)
	for _, mat := range []bool{false, true} {
		name := "streaming"
		if mat {
			name = "materializing"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := NewEvaluator(env)
				ev.Materializing = mat
				if _, err := ev.Eval(term); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
