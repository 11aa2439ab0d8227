package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestConcurrentSessionsIsolation runs several sessions through the full
// scatter → chained-exchange → collect cycle at once, on both transports:
// with per-session frame tags no session may ever observe another's rows,
// however their barriers interleave.
func TestConcurrentSessionsIsolation(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		const sessions = 4
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for si := 0; si < sessions; si++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				errs[si] = func() error {
					rng := rand.New(rand.NewSource(int64(100 + si)))
					// Distinct domains per session: any cross-session frame
					// leak shows up as foreign rows in the final Equal.
					rel := core.NewRelation(core.ColSrc, core.ColTrg)
					for i := 0; i < 200; i++ {
						rel.Add([]core.Value{
							core.Value(si*100000 + rng.Intn(500)),
							core.Value(si*100000 + rng.Intn(500)),
						})
					}
					s := c.NewSession(nil)
					defer s.Close()
					ds, err := s.Parallelize(rel, nil)
					if err != nil {
						return err
					}
					defer s.Free(ds)
					out := s.NewDataset(core.ColSrc, core.ColTrg)
					defer s.Free(out)
					if err := s.RunPhase(func(ctx *Ctx) error {
						cur := ctx.Partition(ds)
						for i := 0; i < 8; i++ {
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
						return err
					}
					got, err := s.Collect(out)
					if err != nil {
						return err
					}
					if !got.Equal(rel) {
						return errors.New("session observed foreign or missing rows")
					}
					return nil
				}()
			}(si)
		}
		wg.Wait()
		for si, err := range errs {
			if err != nil {
				t.Fatalf("session %d: %v", si, err)
			}
		}
	})
}

// TestSessionMetricsExact asserts per-session counters are exactly the
// session's own traffic even when another session shuffles concurrently.
func TestSessionMetricsExact(t *testing.T) {
	c := newTestCluster(t, TransportChan, 4)
	rng := rand.New(rand.NewSource(7))
	rel := randomRel(rng, 400, 60)

	quietDone := make(chan error, 1)
	noisyDone := make(chan error, 1)
	var quiet, noisy *Session
	var wgStart sync.WaitGroup
	wgStart.Add(2)
	go func() {
		noisy = c.NewSession(nil)
		wgStart.Done()
		noisyDone <- func() error {
			for i := 0; i < 5; i++ {
				ds, err := noisy.Parallelize(rel, nil)
				if err != nil {
					return err
				}
				dd, err := noisy.Distinct(ds)
				if err != nil {
					return err
				}
				noisy.Free(ds)
				noisy.Free(dd)
			}
			return nil
		}()
	}()
	go func() {
		quiet = c.NewSession(nil)
		wgStart.Done()
		quietDone <- func() error {
			for i := 0; i < 5; i++ {
				ds, err := quiet.Parallelize(rel, nil)
				if err != nil {
					return err
				}
				got, err := quiet.Collect(ds)
				if err != nil {
					return err
				}
				quiet.Free(ds)
				if !got.Equal(rel) {
					return errors.New("collect mismatch")
				}
			}
			return nil
		}()
	}()
	wgStart.Wait()
	if err := <-noisyDone; err != nil {
		t.Fatal(err)
	}
	if err := <-quietDone; err != nil {
		t.Fatal(err)
	}
	defer noisy.Close()
	defer quiet.Close()
	qm := quiet.Metrics().Snapshot()
	nm := noisy.Metrics().Snapshot()
	if qm.ShufflePhases != 0 || qm.ShuffleRecords != 0 {
		t.Fatalf("quiet session charged shuffle traffic: %+v", qm)
	}
	if nm.ShufflePhases != 5 {
		t.Fatalf("noisy session shuffle phases = %d, want 5", nm.ShufflePhases)
	}
	if qm.ScatterRecords != int64(5*rel.Len()) {
		t.Fatalf("quiet scatter records = %d, want %d", qm.ScatterRecords, 5*rel.Len())
	}
	if nm.ScatterRecords != int64(5*rel.Len()) || nm.CollectRecords != 0 {
		t.Fatalf("noisy session: %d scatter and %d collect records, want %d and 0", nm.ScatterRecords, nm.CollectRecords, 5*rel.Len())
	}
	if qm.CollectRecords != int64(5*rel.Len()) {
		t.Fatalf("quiet collect records = %d, want %d", qm.CollectRecords, 5*rel.Len())
	}
}

// TestSessionCancelAbortsBarrier parks one worker so its peers wait at
// the barrier for frames it never sends, then cancels the session: only
// the context can wake the waiting mailboxes, and every worker must
// return promptly with context.Canceled instead of deadlocking.
func TestSessionCancelAbortsBarrier(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		ctx, cancel := context.WithCancel(context.Background())
		s := c.NewSession(ctx)
		defer s.Close()
		rel := core.NewRelation(core.ColSrc, core.ColTrg)
		for i := 0; i < 50; i++ {
			rel.Add([]core.Value{core.Value(i), core.Value(i + 1)})
		}
		ds, err := s.Parallelize(rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Free(ds)
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		phase := make(chan error, 1)
		go func() {
			phase <- s.RunPhase(func(ctx *Ctx) error {
				if ctx.WorkerID() == 0 {
					// Park worker 0 past the cancel and leave without
					// sending: its peers reach the barrier first and
					// must be unblocked by the context.
					<-ctx.Context().Done()
					return ctx.Context().Err()
				}
				_, err := ctx.Exchange(ctx.Partition(ds), nil)
				return err
			})
		}()
		select {
		case err = <-phase:
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled barrier still blocked after 5s")
		}
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled from the barrier, got %v", err)
		}
		// The cluster stays usable for later sessions.
		if _, err := session(t, c).Collect(ds); err != nil {
			t.Fatalf("cluster unusable after cancelled session: %v", err)
		}
	})
}

// TestCancelledSessionRefusesPhases pins the fast-fail path: a session
// whose context is already cancelled runs nothing.
func TestCancelledSessionRefusesPhases(t *testing.T) {
	c := newTestCluster(t, TransportChan, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := c.NewSession(ctx)
	defer s.Close()
	err := s.RunPhase(func(ctx *Ctx) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// cancelOnErr is a context that cancels itself on the nth call of its
// Err, so a cancel lands at a poll rather than at a moment in time.
type cancelOnErr struct {
	context.Context
	n      atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelOnErr) Err() error {
	if c.n.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancelBetweenFramesFailsReceivers: a mailbox hands out a frame that
// is already queued without looking at the context, so the receive loops
// of a scatter and of a shuffle barrier poll the session before every
// frame. Here the session cancels itself at the first such poll — after
// RunPhase's own check — while every frame still arrives: the transfer
// must fail with context.Canceled instead of completing.
func TestCancelBetweenFramesFailsReceivers(t *testing.T) {
	c := newTestCluster(t, TransportChan, 3)
	rel := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 3*core.BatchRowsFor(2); i++ {
		rel.Add([]core.Value{core.Value(i), core.Value(i + 1)})
	}
	cancelling := func() *Session {
		parent, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		ctx := &cancelOnErr{Context: parent, cancel: cancel}
		ctx.n.Store(2)
		s := c.NewSession(ctx)
		t.Cleanup(s.Close)
		return s
	}

	if _, err := cancelling().Parallelize(rel, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("scatter: want context.Canceled, got %v", err)
	}

	ds, err := session(t, c).Parallelize(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Free(ds)
	err = cancelling().RunPhase(func(ctx *Ctx) error {
		_, err := ctx.Exchange(ctx.Partition(ds), nil)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("shuffle: want context.Canceled, got %v", err)
	}
}
