package cluster

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func randomRel(rng *rand.Rand, n, domain int) *core.Relation {
	r := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < n; i++ {
		r.Add([]core.Value{core.Value(rng.Intn(domain)), core.Value(rng.Intn(domain))})
	}
	return r
}

func newTestCluster(t *testing.T, kind TransportKind, workers int) *Cluster {
	t.Helper()
	c, err := New(Config{Workers: workers, Transport: kind})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// session opens a session on c, closed when the test ends: every call on
// the cluster runs inside one.
func session(t *testing.T, c *Cluster) *Session {
	t.Helper()
	s := c.NewSession(nil)
	t.Cleanup(s.Close)
	return s
}

// count sums the partition sizes of ds.
func count(s *Session, ds *Dataset) (int, error) {
	var total atomic.Int64
	err := s.RunPhase(func(ctx *Ctx) error {
		total.Add(int64(ctx.Partition(ds).Len()))
		return nil
	})
	return int(total.Load()), err
}

func transports(t *testing.T, workers int, f func(t *testing.T, c *Cluster)) {
	t.Run("chan", func(t *testing.T) { f(t, newTestCluster(t, TransportChan, workers)) })
	t.Run("tcp", func(t *testing.T) { f(t, newTestCluster(t, TransportTCP, workers)) })
}

// TestNewRejectsBudgetWithoutSpill checks the platform rule of a task
// budget: where spill runs cannot be mapped, New refuses TaskMemBytes > 0
// with errors.ErrUnsupported; where they can, it accepts it. An
// unbudgeted cluster starts on every platform.
func TestNewRejectsBudgetWithoutSpill(t *testing.T) {
	c, err := New(Config{Workers: 1, TaskMemBytes: 1 << 20, SpillDir: t.TempDir()})
	switch {
	case core.SpillSupported() != nil:
		if !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("budgeted New on a platform without spill runs: err = %v, want ErrUnsupported", err)
		}
	case err != nil:
		t.Fatalf("budgeted New: %v", err)
	default:
		c.Close()
	}
	newTestCluster(t, TransportChan, 1)
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	transports(t, 4, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		rng := rand.New(rand.NewSource(1))
		rel := randomRel(rng, 500, 100)
		for _, byCols := range [][]string{nil, {core.ColSrc}} {
			// Cluster.Parallelize scatters under a throwaway session; the
			// dataset outlives it.
			ds, err := c.Parallelize(rel, byCols)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Collect(ds)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(rel) {
				t.Fatalf("byCols=%v: round trip lost rows: %d vs %d", byCols, got.Len(), rel.Len())
			}
			n, err := count(s, ds)
			if err != nil {
				t.Fatal(err)
			}
			if n != rel.Len() {
				t.Fatalf("count = %d, want %d", n, rel.Len())
			}
		}
	})
}

func TestPartitionsAreDisjointAndComplete(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		rng := rand.New(rand.NewSource(2))
		rel := randomRel(rng, 300, 60)
		ds, err := s.Parallelize(rel, []string{core.ColSrc})
		if err != nil {
			t.Fatal(err)
		}
		// Gather partition contents through a phase into per-worker slots.
		parts := make([]*core.Relation, c.NumWorkers())
		if err := s.RunPhase(func(ctx *Ctx) error {
			parts[ctx.WorkerID()] = ctx.Partition(ds).Clone()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		total := 0
		srcOwner := map[core.Value]int{}
		for i, p := range parts {
			total += p.Len()
			for _, row := range p.Rows() {
				src := row[core.ColIndex(p.Cols(), core.ColSrc)]
				if prev, ok := srcOwner[src]; ok && prev != i {
					t.Fatalf("src %d on workers %d and %d", src, prev, i)
				}
				srcOwner[src] = i
			}
		}
		if total != rel.Len() {
			t.Fatalf("partitions have %d rows, want %d", total, rel.Len())
		}
	})
}

func TestBroadcast(t *testing.T) {
	transports(t, 4, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		rng := rand.New(rand.NewSource(3))
		rel := randomRel(rng, 120, 40)
		b, err := s.BroadcastRel(rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunPhase(func(ctx *Ctx) error {
			got, err := ctx.BroadcastValue(b)
			if err != nil {
				return err
			}
			if !got.Equal(rel) {
				t.Errorf("worker %d: broadcast mismatch", ctx.WorkerID())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		m := s.Metrics().Snapshot()
		if m.BroadcastRecords != int64(rel.Len()*c.NumWorkers()) {
			t.Fatalf("broadcast records = %d, want %d", m.BroadcastRecords, rel.Len()*c.NumWorkers())
		}
	})
}

func TestExchangeRepartitions(t *testing.T) {
	transports(t, 4, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		rng := rand.New(rand.NewSource(4))
		rel := randomRel(rng, 400, 50)
		ds, err := s.Parallelize(rel, nil) // round robin: srcs scattered
		if err != nil {
			t.Fatal(err)
		}
		out := c.NewDataset(core.ColSrc, core.ColTrg)
		if err := s.RunPhase(func(ctx *Ctx) error {
			merged, err := ctx.Exchange(ctx.Partition(ds), []string{core.ColSrc})
			if err != nil {
				return err
			}
			ctx.SetPartition(out, merged)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// After exchange on src, each src lives on exactly one worker.
		parts := make([]*core.Relation, c.NumWorkers())
		if err := s.RunPhase(func(ctx *Ctx) error {
			parts[ctx.WorkerID()] = ctx.Partition(out).Clone()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		owner := map[core.Value]int{}
		for i, p := range parts {
			for _, row := range p.Rows() {
				src := row[core.ColIndex(p.Cols(), core.ColSrc)]
				if prev, ok := owner[src]; ok && prev != i {
					t.Errorf("src %d on two workers", src)
				}
				owner[src] = i
			}
		}
		got, err := s.Collect(out)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(rel) {
			t.Fatal("exchange lost rows")
		}
		if s.Metrics().Snapshot().ShuffleRecords == 0 {
			t.Fatal("exchange moved no records over the wire")
		}

		// ShipInto with the shape a Pgld step hands it: each worker's own
		// rows already in its X, and for every peer several windows of the
		// peer's shuffle filter — one of a single row, the rest large
		// enough that the transfer spans several frames.
		big := randomRel(rng, 20*core.BatchRowsFor(2), 5000)
		bigDS, err := s.Parallelize(big, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := c.NumWorkers()
		owned := make([]*core.Relation, n)
		var shipped, wantBytes atomic.Int64
		// A session of its own, so its counters hold the ShipInto alone.
		ship := session(t, c)
		if err := ship.RunPhase(func(ctx *Ctx) error {
			parts := core.SplitRelation(ctx.Partition(bigDS), n, []string{core.ColSrc, core.ColTrg})
			x := core.NewAccumulator(nil, core.ColSrc, core.ColTrg)
			defer x.Close()
			x.Absorb(parts[ctx.WorkerID()])
			wins := make([][]*core.Relation, n)
			for p, part := range parts {
				if p == ctx.WorkerID() {
					continue
				}
				third := part.Len() / 3
				wins[p] = []*core.Relation{part.Slice(0, 1), part.Slice(1, third), part.Slice(third, 2*third), part.Slice(2*third, part.Len())}
				shipped.Add(int64(part.Len()))
				// One transfer of part's rows: the frames one batch of them
				// would need, whatever windows they arrive in.
				frames := max(1, (part.Len()+core.BatchRowsFor(2)-1)/core.BatchRowsFor(2))
				wantBytes.Add(int64(frames*msgHeaderSize + uvarintSize(part.AsBatch().Values())))
			}
			if err := ctx.ShipInto(wins, x); err != nil {
				return err
			}
			owned[ctx.WorkerID()] = x.Materialize()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		d := ship.Metrics().Snapshot()
		if d.ShuffleRecords != shipped.Load() || d.LocalRecords != 0 {
			t.Fatalf("shuffled %d records (local %d), want the %d rows shipped (0 local)", d.ShuffleRecords, d.LocalRecords, shipped.Load())
		}
		if d.ShuffleBytes != wantBytes.Load() {
			t.Fatalf("shuffled %d bytes, want %d: small windows must be gathered into budget-sized frames", d.ShuffleBytes, wantBytes.Load())
		}
		received := 0
		for w, rel := range owned {
			received += rel.Len()
			for i := 0; i < rel.Len(); i++ {
				if owner := core.Owner(core.HashValues(rel.RowAt(i)), n); owner != w {
					t.Fatalf("row %v arrived at worker %d, its hash names %d", rel.RowAt(i), w, owner)
				}
			}
		}
		if received != big.Len() {
			t.Fatalf("%d rows arrived, want each of %d exactly once", received, big.Len())
		}
		all := core.NewRelation(core.ColSrc, core.ColTrg)
		for _, rel := range owned {
			all.AddBatch(rel.AsBatch())
		}
		if !all.Equal(big) {
			t.Fatal("ShipInto lost rows")
		}
	})
}

func TestDistinctMergesDuplicatesAcrossWorkers(t *testing.T) {
	transports(t, 4, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		// Build per-worker partitions that all contain the same rows.
		ds := c.NewDataset(core.ColSrc, core.ColTrg)
		if err := s.RunPhase(func(ctx *Ctx) error {
			p := core.NewRelation(core.ColSrc, core.ColTrg)
			for i := 0; i < 50; i++ {
				p.Add([]core.Value{core.Value(i), core.Value(i + 1)})
			}
			ctx.SetPartition(ds, p)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		n, err := count(s, ds)
		if err != nil {
			t.Fatal(err)
		}
		if n != 50*c.NumWorkers() {
			t.Fatalf("pre-distinct count = %d", n)
		}
		dd, err := s.Distinct(ds)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := count(s, dd)
		if err != nil {
			t.Fatal(err)
		}
		if n2 != 50 {
			t.Fatalf("post-distinct count = %d, want 50", n2)
		}
	})
}

func TestMultipleExchangesInOnePhase(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		rng := rand.New(rand.NewSource(5))
		rel := randomRel(rng, 200, 30)
		ds, err := s.Parallelize(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := c.NewDataset(core.ColSrc, core.ColTrg)
		if err := s.RunPhase(func(ctx *Ctx) error {
			a, err := ctx.Exchange(ctx.Partition(ds), []string{core.ColSrc})
			if err != nil {
				return err
			}
			b, err := ctx.Exchange(a, []string{core.ColTrg})
			if err != nil {
				return err
			}
			ctx.SetPartition(out, b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got, err := s.Collect(out)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(rel) {
			t.Fatal("chained exchanges lost rows")
		}
	})
}

func TestWorkerIsolationNoSharedMemory(t *testing.T) {
	// Mutating a collected relation must not affect worker partitions:
	// rows are copied/serialized through the transport.
	transports(t, 2, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		rel := core.NewRelation(core.ColSrc, core.ColTrg)
		rel.Add([]core.Value{1, 2})
		rel.Add([]core.Value{3, 4})
		ds, err := s.Parallelize(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Collect(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range got.Rows() {
			row[0] = 999 // vandalize the driver copy
		}
		again, err := s.Collect(ds)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Equal(rel) {
			t.Fatal("worker partitions were corrupted through a collected copy")
		}
	})
}

func TestKillWorkerFailsCleanly(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		rel := core.NewRelation(core.ColSrc, core.ColTrg)
		rel.Add([]core.Value{1, 2})
		ds, err := s.Parallelize(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.KillWorker(1)
		if _, err := s.Collect(ds); err == nil {
			t.Fatal("collect with a dead worker should fail")
		}
		if err := s.RunPhase(func(ctx *Ctx) error { return nil }); err == nil {
			t.Fatal("phase with a dead worker should fail")
		}
	})
}

func TestTransportCloseMidUse(t *testing.T) {
	c := newTestCluster(t, TransportTCP, 3)
	s := session(t, c)
	rel := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 100; i++ {
		rel.Add([]core.Value{core.Value(i), core.Value(i + 1)})
	}
	ds, err := s.Parallelize(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect(ds); err == nil {
		t.Fatal("collect after close should fail")
	}
}

func TestExchangeBadColumn(t *testing.T) {
	c := newTestCluster(t, TransportChan, 2)
	s := session(t, c)
	rel := core.NewRelation(core.ColSrc, core.ColTrg)
	rel.Add([]core.Value{1, 2})
	ds, err := s.Parallelize(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = s.RunPhase(func(ctx *Ctx) error {
		_, err := ctx.Exchange(ctx.Partition(ds), []string{"nope"})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("expected bad-column error, got %v", err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	c := newTestCluster(t, TransportChan, 4)
	s := session(t, c)
	rng := rand.New(rand.NewSource(6))
	rel := randomRel(rng, 300, 40)
	ds, err := s.Parallelize(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	afterScatter := s.Metrics().Snapshot()
	if afterScatter.ScatterRecords != int64(rel.Len()) {
		t.Fatalf("scatter records = %d, want %d", afterScatter.ScatterRecords, rel.Len())
	}
	if afterScatter.ShuffleRecords != 0 {
		t.Fatal("scatter should not count as shuffle")
	}
	// The distinct runs in a session of its own: its counters are that
	// one shuffle's, whatever the scatter's session counted.
	dist := session(t, c)
	if _, err := dist.Distinct(ds); err != nil {
		t.Fatal(err)
	}
	d := dist.Metrics().Snapshot()
	if d.ShufflePhases != 1 {
		t.Fatalf("shuffle phases = %d, want 1", d.ShufflePhases)
	}
	if d.ShuffleRecords+d.LocalRecords != int64(rel.Len()) {
		t.Fatalf("shuffled %d + local %d ≠ %d", d.ShuffleRecords, d.LocalRecords, rel.Len())
	}
	if d.ShuffleBytes <= 0 {
		t.Fatal("no shuffle bytes counted")
	}
	if d.ScatterRecords != 0 || s.Metrics().Snapshot() != afterScatter {
		t.Fatal("one session's traffic was counted in another's")
	}
}

func TestTCPWireBytesAreReal(t *testing.T) {
	c := newTestCluster(t, TransportTCP, 2)
	s := session(t, c)
	rel := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 64; i++ {
		rel.Add([]core.Value{core.Value(i), core.Value(i)})
	}
	ds, err := s.Parallelize(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect(ds); err != nil {
		t.Fatal(err)
	}
	d := s.Metrics().Snapshot()
	// 64 rows × 2 cols, every value < 128 → exactly 1 varint byte per
	// value plus one frame header per message. Each direction must carry
	// at least the 128 value bytes, and strictly less than the 8-byte-per-
	// value framing the batch encoding replaced (1024 bytes + headers).
	if d.ScatterBytes < 128 || d.CollectBytes < 128 {
		t.Fatalf("wire bytes too small: scatter=%d collect=%d", d.ScatterBytes, d.CollectBytes)
	}
	if d.ScatterBytes >= 1024 || d.CollectBytes >= 1024 {
		t.Fatalf("varint batch frames did not shrink traffic: scatter=%d collect=%d",
			d.ScatterBytes, d.CollectBytes)
	}
}

func TestFreeDataset(t *testing.T) {
	c := newTestCluster(t, TransportChan, 2)
	s := session(t, c)
	rel := core.NewRelation(core.ColSrc, core.ColTrg)
	rel.Add([]core.Value{1, 2})
	ds, err := s.Parallelize(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(ds); err != nil {
		t.Fatal(err)
	}
	n, err := count(s, ds)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("freed dataset still has %d rows", n)
	}
}

// TestManyChainedExchangesWithSkew stresses the out-of-order buffering:
// workers proceed through many exchange barriers at deliberately different
// speeds, so fast workers send for barrier k+1 while slow ones still
// collect barrier k.
func TestManyChainedExchangesWithSkew(t *testing.T) {
	transports(t, 4, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		rng := rand.New(rand.NewSource(9))
		rel := randomRel(rng, 120, 25)
		ds, err := s.Parallelize(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := c.NewDataset(core.ColSrc, core.ColTrg)
		if err := s.RunPhase(func(ctx *Ctx) error {
			cur := ctx.Partition(ds)
			for i := 0; i < 40; i++ {
				// Skew: some workers burn time before each barrier.
				if ctx.WorkerID()%2 == 0 {
					time.Sleep(time.Duration(ctx.WorkerID()) * time.Millisecond)
				}
				by := []string{core.ColSrc}
				if i%2 == 1 {
					by = []string{core.ColTrg}
				}
				next, err := ctx.Exchange(cur, by)
				if err != nil {
					return err
				}
				cur = next
			}
			ctx.SetPartition(out, cur)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got, err := s.Collect(out)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(rel) {
			t.Fatal("chained skewed exchanges lost rows")
		}
	})
}

func TestEmptyRelationOps(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		empty := core.NewRelation(core.ColSrc, core.ColTrg)
		ds, err := s.Parallelize(empty, []string{core.ColSrc})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Collect(ds)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 {
			t.Fatalf("collect of empty = %d rows", got.Len())
		}
		b, err := s.BroadcastRel(empty)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunPhase(func(ctx *Ctx) error {
			if bv, err := ctx.BroadcastValue(b); err != nil || bv.Len() != 0 {
				t.Errorf("empty broadcast: err %v, or it has rows", err)
			}
			out, err := ctx.Exchange(ctx.Partition(ds), nil)
			if err != nil {
				return err
			}
			if out.Len() != 0 {
				t.Error("exchange of empty has rows")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSingleWorkerCluster(t *testing.T) {
	c := newTestCluster(t, TransportChan, 1)
	s := session(t, c)
	rng := rand.New(rand.NewSource(8))
	rel := randomRel(rng, 50, 10)
	ds, err := s.Parallelize(rel, []string{core.ColSrc})
	if err != nil {
		t.Fatal(err)
	}
	dd, err := s.Distinct(ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Collect(dd)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(rel) {
		t.Fatal("single-worker round trip failed")
	}
}

func TestWideRowsOverTCP(t *testing.T) {
	c := newTestCluster(t, TransportTCP, 2)
	s := session(t, c)
	cols := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	rel := core.NewRelation(cols...)
	for i := 0; i < 200; i++ {
		row := make([]core.Value, len(cols))
		for j := range row {
			row[j] = core.Value(i*10 + j)
		}
		rel.Add(row)
	}
	ds, err := s.Parallelize(rel, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Collect(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(rel) {
		t.Fatal("wide rows corrupted over TCP")
	}
}

// TestMultiFrameTransfers pushes relations much larger than the per-frame
// byte budget through every exchange primitive: each logical transfer must
// arrive complete and deduplicated even though it crosses the wire as many
// budget-sized frames (core.BatchRowsFor rows each, Last-flagged final).
func TestMultiFrameTransfers(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		s := session(t, c)
		rng := rand.New(rand.NewSource(44))
		// ~5 frames at arity 2.
		n := core.BatchRowsFor(2)*4 + 123
		rel := randomRel(rng, n*2, n*4)
		if rel.Len() <= core.BatchRowsFor(2) {
			t.Fatalf("test relation too small to force multiple frames")
		}
		ds, err := s.Parallelize(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Collect(ds)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(rel) {
			t.Fatalf("scatter/collect across frames lost rows: %d vs %d", got.Len(), rel.Len())
		}
		b, err := s.BroadcastRel(rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunPhase(func(ctx *Ctx) error {
			bv, err := ctx.BroadcastValue(b)
			if err != nil {
				return err
			}
			if !bv.Equal(rel) {
				t.Errorf("worker %d: broadcast across frames lost rows: %d vs %d",
					ctx.WorkerID(), bv.Len(), rel.Len())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Exchange: repartition by src; the union of results must equal rel.
		parts := make([]*core.Relation, c.NumWorkers())
		if err := s.RunPhase(func(ctx *Ctx) error {
			merged, err := ctx.Exchange(ctx.Partition(ds), []string{core.ColSrc})
			if err != nil {
				return err
			}
			parts[ctx.WorkerID()] = merged
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		union := core.NewRelation(rel.Cols()...)
		for _, p := range parts {
			union.UnionInPlace(p)
		}
		if !union.Equal(rel) {
			t.Fatalf("exchange across frames lost rows: %d vs %d", union.Len(), rel.Len())
		}
	})
}
