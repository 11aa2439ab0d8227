package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestBroadcastValueLostHandle: a worker asked for a broadcast it does
// not hold reports a typed, retryable error instead of handing the phase
// an empty relation that would silently drop rows, and its failure aborts
// the peers that wait for its frames.
func TestBroadcastValueLostHandle(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		rel := randomRel(rand.New(rand.NewSource(5)), 60, 20)
		first := session(t, c)
		b, err := first.BroadcastRel(rel)
		if err != nil {
			t.Fatal(err)
		}
		first.FreeBroadcast(b)
		err = first.RunPhase(func(ctx *Ctx) error {
			r, err := ctx.BroadcastValue(b)
			if err == nil {
				t.Errorf("worker %d: freed broadcast served %d of %d rows", ctx.WorkerID(), r.Len(), rel.Len())
			}
			return err
		})
		if !errors.Is(err, ErrBroadcastLost) {
			t.Fatalf("phase error %v, want ErrBroadcastLost", err)
		}
		if got := Classify(context.Background(), err); got != WorkerFailure {
			t.Fatalf("lost broadcast classified %v, want %v", got, WorkerFailure)
		}

		// Peers already waiting at a barrier for the failed member's
		// frames abort with its failure instead of hanging.
		s := c.NewSession(nil)
		defer s.Close()
		err = s.RunPhase(func(ctx *Ctx) error {
			if ctx.WorkerID() == 0 {
				_, err := ctx.BroadcastValue(b)
				return err
			}
			_, err := ctx.Exchange(rel, nil)
			return err
		})
		if !errors.Is(err, ErrBroadcastLost) {
			t.Fatalf("barrier phase error %v, want ErrBroadcastLost", err)
		}
	})
}

// residentCopies returns the ids of the copies of name each worker
// holds, keyed by physical worker id.
func residentCopies(c *Cluster, name string) map[int][]int64 {
	out := map[int][]int64{}
	for _, bc := range c.BroadcastCopies() {
		if bc.Name == name {
			out[bc.Worker] = append(out[bc.Worker], bc.ID)
		}
	}
	return out
}

// TestResidentBroadcastLeases walks one bound name through the registry's
// life cycle: served while unchanged, re-sent after a mutation with the
// superseded copy kept until its lease drops, private for a session of an
// older epoch, and retired on demand.
func TestResidentBroadcastLeases(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		rel := randomRel(rand.New(rand.NewSource(6)), 80, 30)
		acquire := func(s *Session) (*Broadcast, func(), int64) {
			t.Helper()
			before := s.Metrics().Snapshot().BroadcastBytes
			b, release, err := s.AcquireBroadcast("G", rel)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunPhase(func(ctx *Ctx) error {
				r, err := ctx.BroadcastValue(b)
				if err == nil && !r.Equal(rel) {
					t.Errorf("worker %d: resident copy has %d rows, want %d", ctx.WorkerID(), r.Len(), rel.Len())
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			return b, release, s.Metrics().Snapshot().BroadcastBytes - before
		}
		s := c.NewSession(nil)
		defer s.Close()

		b1, rel1, sent := acquire(s)
		if sent == 0 {
			t.Fatal("first acquire sent nothing")
		}
		b2, rel2, sent := acquire(s)
		if sent != 0 || b2 != b1 {
			t.Fatalf("second acquire of an unchanged relation sent %d bytes (same handle: %v)", sent, b2 == b1)
		}
		rel2()

		// A mutation supersedes the copy; the lease still out keeps it.
		rel.Add([]core.Value{1000, 1001})
		b3, rel3, sent := acquire(s)
		if sent == 0 || b3 == b1 {
			t.Fatal("acquire after a mutation did not re-send")
		}
		for w, ids := range residentCopies(c, "G") {
			if len(ids) != 2 {
				t.Fatalf("worker %d holds %d copies while the old lease is out, want 2", w, len(ids))
			}
		}
		rel1()
		for w, ids := range residentCopies(c, "G") {
			if len(ids) != 1 || ids[0] != b3.id {
				t.Fatalf("worker %d holds %v after the old lease dropped, want only %d", w, ids, b3.id)
			}
		}
		rel3()

		// A recovery retires the copy; a session of the new epoch sends
		// and registers its own.
		c.KillWorker(2)
		if removed, _ := c.Recover(); len(removed) != 1 {
			t.Fatalf("recover removed %v", removed)
		}
		if got := residentCopies(c, "G"); len(got) != 0 {
			t.Fatalf("copies of the old epoch survived recovery: %v", got)
		}
		s2 := c.NewSession(nil)
		defer s2.Close()
		_, rel4, sent := acquire(s2)
		rel4()
		if got := residentCopies(c, "G"); sent == 0 || len(got) != 2 {
			t.Fatalf("after recovery: sent %d bytes, copies on %d workers, want the 2 members", sent, len(got))
		}

		// After a revival, a session of the older epoch gets a private
		// copy and never registers one.
		c.ReviveWorker(2)
		if got := residentCopies(c, "G"); len(got) != 0 {
			t.Fatalf("copies of the old epoch survived revival: %v", got)
		}
		b5, rel5, sent := acquire(s2)
		if sent == 0 {
			t.Fatal("old-epoch session was served without a send")
		}
		for _, bc := range c.BroadcastCopies() {
			if bc.ID == b5.id && bc.Name != "" {
				t.Fatalf("old-epoch copy registered as %q", bc.Name)
			}
		}
		rel5()
		if n := len(c.BroadcastCopies()); n != 0 {
			t.Fatalf("%d copies left after the private lease dropped", n)
		}
		s3 := c.NewSession(nil)
		defer s3.Close()
		_, rel6, _ := acquire(s3)
		rel6()
		if got := residentCopies(c, "G"); len(got) != 3 {
			t.Fatalf("current-epoch copy on %d workers, want all 3", len(got))
		}
		c.RetireResidentBroadcasts()
		if n := len(c.BroadcastCopies()); n != 0 {
			t.Fatalf("%d copies left after retiring", n)
		}
	})
}

// TestResidentBroadcastSingleSend: sessions that ask for the same bound
// relation at once share one send.
func TestResidentBroadcastSingleSend(t *testing.T) {
	transports(t, 3, func(t *testing.T, c *Cluster) {
		rel := randomRel(rand.New(rand.NewSource(7)), 200, 50)
		const holders = 8
		var wg sync.WaitGroup
		errs := make([]error, holders)
		sent := make([]int64, holders)
		for i := 0; i < holders; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := c.NewSession(nil)
				defer s.Close()
				defer func() { sent[i] = s.Metrics().Snapshot().BroadcastRecords }()
				b, release, err := s.AcquireBroadcast("G", rel)
				if err != nil {
					errs[i] = err
					return
				}
				defer release()
				errs[i] = s.RunPhase(func(ctx *Ctx) error {
					_, err := ctx.BroadcastValue(b)
					return err
				})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("holder %d: %v", i, err)
			}
		}
		var got int64
		for _, n := range sent {
			got += n
		}
		if want := int64(rel.Len() * c.NumWorkers()); got != want {
			t.Fatalf("%d holders shipped %d broadcast records, want one send of %d", holders, got, want)
		}
		for w, ids := range residentCopies(c, "G") {
			if len(ids) != 1 {
				t.Fatalf("worker %d holds %d copies, want 1", w, len(ids))
			}
		}
	})
}

// TestResidentBroadcastWaiterHonorsCancel: a session waiting on another
// session's send of a resident broadcast stops waiting once its own
// context is cancelled, instead of riding out the send. The owner's first
// frame is held back for a second, so its send is still in flight when
// the cancelled waiter asks for the same copy.
func TestResidentBroadcastWaiterHonorsCancel(t *testing.T) {
	c := newTestCluster(t, TransportChan, 2)
	rel := randomRel(rand.New(rand.NewSource(8)), 100, 30)
	stall := NewFaultPlan()
	stall.DelayFrameAt, stall.Delay = 1, time.Second
	c.InjectFaults(stall)
	defer c.InjectFaults(nil)
	filled := make(chan error, 1)
	go func() {
		_, release, err := session(t, c).AcquireBroadcast("G", rel)
		if err == nil {
			release()
		}
		filled <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.residents.mu.Lock()
		_, sending := c.residents.byName["G"]
		c.residents.mu.Unlock()
		if sending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the owner never registered its copy")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waiter := c.NewSession(ctx)
	defer waiter.Close()
	if _, _, err := waiter.AcquireBroadcast("G", rel); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: want context.Canceled, got %v", err)
	}
	if err := <-filled; err != nil {
		t.Fatalf("owner: %v", err)
	}
}
