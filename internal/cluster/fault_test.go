package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// TestKillWorkerReturnsTransition covers the satellite bugfix: KillWorker
// reports whether the call transitioned the worker to dead, so fault
// tests can assert their injection landed instead of silently missing.
func TestKillWorkerReturnsTransition(t *testing.T) {
	c := newTestCluster(t, TransportChan, 3)
	if c.KillWorker(-1) {
		t.Fatal("killing worker -1 should report false")
	}
	if c.KillWorker(3) {
		t.Fatal("killing out-of-range worker should report false")
	}
	if !c.KillWorker(1) {
		t.Fatal("first kill of a live worker should report true")
	}
	if c.KillWorker(1) {
		t.Fatal("killing an already-dead worker should report false")
	}
}

// TestDeadWorkerErrorIsTyped asserts the barrier error of a phase with a
// dead member is a FailureError carrying the worker id and phase.
func TestDeadWorkerErrorIsTyped(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		if !c.KillWorker(2) {
			t.Fatal("kill did not land")
		}
		err := session(t, c).RunPhase(func(ctx *Ctx) error { return nil })
		var fe *FailureError
		if !errors.As(err, &fe) {
			t.Fatalf("expected *FailureError, got %T: %v", err, err)
		}
		if fe.Class != WorkerFailure || fe.Worker != 2 || fe.Phase == 0 {
			t.Fatalf("failure context incomplete: %+v", fe)
		}
		if Classify(context.Background(), err) != WorkerFailure {
			t.Fatalf("dead-worker error classified as %v", Classify(context.Background(), err))
		}
	})
}

func TestClassify(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want FailureClass
	}{
		{"nil error", bg, nil, 0},
		{"ctx canceled", bg, context.Canceled, QueryCancelled},
		{"deadline", bg, context.DeadlineExceeded, QueryCancelled},
		{"wrapped cancel", bg, fmt.Errorf("phase: %w", context.Canceled), QueryCancelled},
		{"dead worker", bg, errWorkerDead, WorkerFailure},
		{"injected drop", bg, fmt.Errorf("send: %w", ErrInjectedDrop), WorkerFailure},
		{"eof", bg, io.EOF, WorkerFailure},
		{"unexpected eof", bg, io.ErrUnexpectedEOF, WorkerFailure},
		{"conn reset", bg, syscall.ECONNRESET, WorkerFailure},
		{"broken pipe text", bg, errors.New("write tcp 127.0.0.1:1->127.0.0.1:2: broken pipe"), WorkerFailure},
		{"closed conn text", bg, errors.New("use of closed network connection"), WorkerFailure},
		{"typed failure", bg, &FailureError{Class: WorkerFailure, Worker: 1}, WorkerFailure},
		{"logic error", bg, errors.New("cluster: protocol violation"), Fatal},
		{"transport down", bg, errTransportDown, Fatal},
		// The satellite bugfix: a cancelled context wins every race — even
		// an error that looks exactly like a worker failure classifies as
		// QueryCancelled when the caller asked for the abort.
		{"cancel beats transport error", cancelled, errTransportDown, QueryCancelled},
		{"cancel beats conn reset", cancelled, syscall.ECONNRESET, QueryCancelled},
		{"cancel beats typed failure", cancelled, &FailureError{Class: WorkerFailure}, QueryCancelled},
	}
	for _, tc := range cases {
		if got := Classify(tc.ctx, tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCancelRacingTransportClose drives the mailbox path of the satellite
// bugfix: when the session context is cancelled and the transport shuts
// down at the same moment, the receive must report the cancellation, never
// the transport error. The select between the two ready channels is
// random, so hammer it.
func TestCancelRacingTransportClose(t *testing.T) {
	for i := 0; i < 200; i++ {
		tr := NewChanTransport(1)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		tr.Close()
		m := newMailbox()
		if _, err := m.get(ctx, tr.Done(), nil, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: got %v, want context.Canceled", i, err)
		}
	}
}

// TestInjectedDropFailsBothEnds: a dropped frame must not strand the
// receiver at the barrier — the session fails as a whole, like both ends
// of a reset connection.
func TestInjectedDropFailsBothEnds(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		rng := rand.New(rand.NewSource(7))
		rel := randomRel(rng, 300, 50)
		s := session(t, c)
		ds, err := s.Parallelize(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := NewFaultPlan()
		p.DropFrameAt = 2
		c.InjectFaults(p)
		defer c.InjectFaults(nil)
		done := make(chan error, 1)
		go func() {
			done <- s.RunPhase(func(ctx *Ctx) error {
				_, err := ctx.Exchange(ctx.Partition(ds), nil)
				return err
			})
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("exchange with a dropped frame should fail")
			}
			if Classify(context.Background(), err) != WorkerFailure {
				t.Fatalf("drop classified as %v: %v", Classify(context.Background(), err), err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("exchange hung on the dropped frame instead of failing")
		}
	})
}

// TestDelayAndDuplicateAreHarmless: latency and duplicated frames must not
// change the result of a shuffle.
func TestDelayAndDuplicateAreHarmless(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		rng := rand.New(rand.NewSource(11))
		rel := randomRel(rng, 400, 60)
		s := session(t, c)
		ds, err := s.Parallelize(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := s.Collect(ds)
		if err != nil {
			t.Fatal(err)
		}
		for name, plan := range map[string]*FaultPlan{
			"delay":     {KillWorkerID: -1, PartitionWorkerID: -1, DelayFrameAt: 3, Delay: 30 * time.Millisecond},
			"duplicate": {KillWorkerID: -1, PartitionWorkerID: -1, DuplicateFrameAt: 2},
		} {
			c.InjectFaults(plan)
			out, err := s.Distinct(ds)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := s.Collect(out)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(baseline) {
				t.Fatalf("%s: result changed: %d vs %d rows", name, got.Len(), baseline.Len())
			}
		}
		c.InjectFaults(nil)
	})
}

// TestDuplicatedFrameDroppedByOrdinal: scatter and broadcast append the
// frames they receive without re-hashing them, so a frame delivered twice
// — any frame of the transfer, its Last one included — must be dropped by
// its ordinal: the receiver ends up with exactly the sender's rows, and a
// duplicated Last frame does not end the barrier one sender early. The
// collect's gather drops it the same way.
func TestDuplicatedFrameDroppedByOrdinal(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		// Two frames per worker per transfer: six frames each.
		perWorker := core.BatchRowsFor(2) + 10
		rel := core.NewRelation(core.ColSrc, core.ColTrg)
		for i := 0; i < 3*perWorker; i++ {
			rel.Add([]core.Value{core.Value(i), core.Value(i % 7)})
		}
		half := rel.Slice(0, 2*perWorker-20)
		dup := func(frame int64) {
			p := NewFaultPlan()
			p.DuplicateFrameAt = frame
			c.InjectFaults(p)
		}
		defer c.InjectFaults(nil)
		for frame := int64(1); frame <= 6; frame++ {
			s := session(t, c)
			dup(frame)
			ds, err := s.Parallelize(rel, nil)
			if err != nil {
				t.Fatalf("scatter, frame %d duplicated: %v", frame, err)
			}
			c.InjectFaults(nil)
			if n, err := count(s, ds); err != nil || n != rel.Len() {
				t.Fatalf("scatter, frame %d duplicated: partitions hold %d rows, want %d (err %v)", frame, n, rel.Len(), err)
			}

			dup(frame)
			got, err := s.Collect(ds)
			if err != nil {
				t.Fatalf("collect, frame %d duplicated: %v", frame, err)
			}
			if got.Len() != rel.Len() || !core.SameRows(got, rel) {
				t.Fatalf("collect, frame %d duplicated: %d rows, want the %d scattered", frame, got.Len(), rel.Len())
			}

			dup(frame)
			b, err := s.BroadcastRel(half)
			if err != nil {
				t.Fatalf("broadcast, frame %d duplicated: %v", frame, err)
			}
			c.InjectFaults(nil)
			if err := s.RunPhase(func(ctx *Ctx) error {
				r, err := ctx.BroadcastValue(b)
				if err != nil {
					return err
				}
				if r.Len() != half.Len() || !core.SameRows(r, half) {
					return fmt.Errorf("worker %d holds %d broadcast rows, want %d", ctx.WorkerID(), r.Len(), half.Len())
				}
				return nil
			}); err != nil {
				t.Fatalf("broadcast, frame %d duplicated: %v", frame, err)
			}
			s.Free(ds)
			s.FreeBroadcast(b)
		}
	})
}

// TestRecoverShrinksMembership: after Recover, new sessions run on the
// survivors with dense ranks, the epoch is bumped, and a full
// parallelize/exchange/collect cycle works on the shrunk membership.
func TestRecoverShrinksMembership(t *testing.T) {
	transports(t, 4, func(t *testing.T, c *Cluster) {
		epoch0 := c.Epoch()
		if !c.KillWorker(2) {
			t.Fatal("kill did not land")
		}
		removed, live := c.Recover()
		if len(removed) != 1 || removed[0] != 2 || live != 3 {
			t.Fatalf("Recover = (%v, %d), want ([2], 3)", removed, live)
		}
		if c.Epoch() != epoch0+1 {
			t.Fatalf("epoch not bumped: %d", c.Epoch())
		}
		if got := c.LiveWorkers(); len(got) != 3 {
			t.Fatalf("live workers = %v", got)
		}
		// Second Recover is a no-op.
		if removed, live := c.Recover(); len(removed) != 0 || live != 3 {
			t.Fatalf("idempotent Recover = (%v, %d)", removed, live)
		}

		rng := rand.New(rand.NewSource(3))
		rel := randomRel(rng, 500, 80)
		s := session(t, c)
		ds, err := s.Parallelize(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Ranks must be dense 0..2 even though physical ids are {0,1,3}.
		seen := make([]bool, s.NumWorkers())
		nodes := make([]int, s.NumWorkers())
		err = s.RunPhase(func(ctx *Ctx) error {
			if ctx.WorkerID() < 0 || ctx.WorkerID() >= ctx.NumWorkers() {
				return fmt.Errorf("rank %d out of range", ctx.WorkerID())
			}
			seen[ctx.WorkerID()] = true
			nodes[ctx.WorkerID()] = ctx.NodeID()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, ok := range seen {
			if !ok {
				t.Fatalf("rank %d never ran", r)
			}
			if nodes[r] == 2 {
				t.Fatal("removed worker 2 ran a phase")
			}
		}
		out, err := s.Distinct(ds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Collect(out)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(rel) {
			t.Fatalf("post-recovery round trip lost rows: %d vs %d", got.Len(), rel.Len())
		}

		// A revived worker rejoins new sessions on another epoch bump.
		if !c.ReviveWorker(2) {
			t.Fatal("revive did not land")
		}
		if c.ReviveWorker(2) {
			t.Fatal("reviving a live worker should report false")
		}
		if c.Epoch() != epoch0+2 {
			t.Fatalf("epoch after revive = %d", c.Epoch())
		}
		if got := len(c.LiveWorkers()); got != 4 {
			t.Fatalf("live after revive = %d", got)
		}
		s2 := c.NewSession(nil)
		defer s2.Close()
		if s2.NumWorkers() != 4 {
			t.Fatalf("new session sees %d members, want 4", s2.NumWorkers())
		}
	})
}

// TestHeartbeatDetectsPartition: a partitioned worker (frames silently
// dropped in both directions, heartbeats included) would hang every
// barrier forever — only the liveness prober can notice. The probe
// timeout must convert the hang into a prompt typed WorkerFailure.
func TestHeartbeatDetectsPartition(t *testing.T) {
	for _, kind := range []TransportKind{TransportChan, TransportTCP} {
		name := "chan"
		if kind == TransportTCP {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{Workers: 2, Transport: kind,
				HeartbeatInterval: 2 * time.Millisecond, HeartbeatTimeout: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			rng := rand.New(rand.NewSource(5))
			rel := randomRel(rng, 200, 40)
			s := session(t, c)
			ds, err := s.Parallelize(rel, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := NewFaultPlan()
			p.PartitionWorkerID = 1
			p.PartitionAtPhase = 1
			c.InjectFaults(p)
			defer c.InjectFaults(nil)
			done := make(chan error, 1)
			go func() {
				done <- s.RunPhase(func(ctx *Ctx) error {
					_, err := ctx.Exchange(ctx.Partition(ds), nil)
					return err
				})
			}()
			select {
			case err := <-done:
				var fe *FailureError
				if !errors.As(err, &fe) || fe.Class != WorkerFailure || fe.Worker != 1 {
					t.Fatalf("expected WorkerFailure on worker 1, got %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("partitioned worker hung the barrier; heartbeat detection did not fire")
			}
		})
	}
}

// TestSessionFailureIsolated: one session's detected failure must not leak
// into a sibling session open on the same cluster at the same time.
func TestSessionFailureIsolated(t *testing.T) {
	c := newTestCluster(t, TransportChan, 3)
	rng := rand.New(rand.NewSource(9))
	rel := randomRel(rng, 300, 50)

	sib := c.NewSession(nil)
	defer sib.Close()
	dsSib, err := sib.Parallelize(rel, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Fail a second session via an injected drop.
	victim := c.NewSession(nil)
	defer victim.Close()
	dsV, err := victim.Parallelize(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewFaultPlan()
	p.DropFrameAt = 1
	c.InjectFaults(p)
	err = victim.RunPhase(func(ctx *Ctx) error {
		_, err := ctx.Exchange(ctx.Partition(dsV), nil)
		return err
	})
	c.InjectFaults(nil)
	if err == nil {
		t.Fatal("victim session should have failed")
	}
	if victim.failErr() == nil {
		t.Fatal("victim session did not record its failure")
	}

	// The sibling — open through all of it — is untouched and fully usable.
	if sib.failErr() != nil {
		t.Fatalf("sibling session inherited the failure: %v", sib.failErr())
	}
	got, err := sib.Collect(dsSib)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(rel) {
		t.Fatalf("sibling result corrupted: %d vs %d rows", got.Len(), rel.Len())
	}
}

// TestCloseIdempotentUnderLoad covers the satellite Close coverage: Close
// during in-flight sessions returns promptly, a second Close is a no-op,
// and no goroutines leak.
func TestCloseIdempotentUnderLoad(t *testing.T) {
	for _, kind := range []TransportKind{TransportChan, TransportTCP} {
		name := "chan"
		if kind == TransportTCP {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{Workers: 3, Transport: kind})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			rel := randomRel(rng, 2000, 100)
			ds, err := c.Parallelize(rel, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Several sessions grinding exchanges while Close lands.
			errs := make(chan error, 4)
			for i := 0; i < 4; i++ {
				go func() {
					s := c.NewSession(nil)
					defer s.Close()
					var err error
					for j := 0; j < 100 && err == nil; j++ {
						err = s.RunPhase(func(ctx *Ctx) error {
							_, err := ctx.Exchange(ctx.Partition(ds), nil)
							return err
						})
					}
					errs <- err
				}()
			}
			time.Sleep(5 * time.Millisecond)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			for i := 0; i < 4; i++ {
				select {
				case err := <-errs:
					if err == nil {
						// Finished all its phases before Close — fine.
						continue
					}
				case <-time.After(10 * time.Second):
					t.Fatal("session hung across Close")
				}
			}
		})
	}
}
