package distmura

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// faultTestGraph loads a graph whose closure takes several fixpoint
// iterations on every plan: a chain with a few shortcut edges.
func faultTestGraph(e *Engine) {
	for i := 0; i < 40; i++ {
		e.AddTriple(fmt.Sprintf("n%d", i), "e", fmt.Sprintf("n%d", i+1))
	}
	for i := 0; i < 40; i += 7 {
		e.AddTriple(fmt.Sprintf("n%d", i), "e", fmt.Sprintf("m%d", i))
	}
}

// TestFaultRetryAllPlans is the acceptance test of the retry tentpole: a
// query that loses a worker mid-execution must complete via an
// epoch-bumped retry with results identical to the fault-free run, on all
// three physical plans and both transports' classification paths.
func TestFaultRetryAllPlans(t *testing.T) {
	cases := []struct {
		name      string
		plan      Plan
		transport Transport
	}{
		{"Pgld", PlanGld, TransportChan},
		{"Ps_plw", PlanSplw, TransportChan},
		{"Ppg_plw", PlanPgplw, TransportChan},
		{"Pgld_tcp", PlanGld, TransportTCP},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := openTest(t, Options{Workers: 4, Transport: tc.transport,
				MaxQueryRetries: 3, RetryBackoff: time.Millisecond})
			faultTestGraph(e)
			q := "?x,?y <- ?x e+ ?y"

			// Calibrate: a fault-free run under a counting-only plan tells
			// us how many phases this plan/query needs, so the kill can be
			// aimed mid-execution instead of guessed.
			probe := cluster.NewFaultPlan()
			e.Cluster().InjectFaults(probe)
			want := collect(t, e, q, WithPlan(tc.plan))
			total := probe.Phases()
			if total < 2 {
				t.Fatalf("query ran only %d phases; cannot kill mid-execution", total)
			}

			kill := cluster.NewFaultPlan()
			kill.KillWorkerID = 1
			kill.KillAtPhase = total/2 + 1
			e.Cluster().InjectFaults(kill)
			defer e.Cluster().InjectFaults(nil)

			got := collect(t, e, q, WithPlan(tc.plan))
			if canonical(got) != canonical(want) {
				t.Fatalf("retried result differs from fault-free run: %d vs %d rows",
					len(got.Rows), len(want.Rows))
			}
			if got.Stats.RetryCount != 1 {
				t.Fatalf("RetryCount = %d, want 1 (kill at phase %d of %d)",
					got.Stats.RetryCount, kill.KillAtPhase, total)
			}
			if got.Stats.RecoveredWorkers != 1 {
				t.Fatalf("RecoveredWorkers = %d, want 1", got.Stats.RecoveredWorkers)
			}
			if got.Stats.WastedBytes <= 0 {
				t.Fatalf("WastedBytes = %d, want > 0 (the failed attempt shipped data)",
					got.Stats.WastedBytes)
			}
			if live := len(e.Cluster().LiveWorkers()); live != 3 {
				t.Fatalf("live workers after recovery = %d, want 3", live)
			}

			// A restarted worker rejoins on the next epoch bump and the
			// query still answers correctly at full strength.
			if !e.Cluster().ReviveWorker(1) {
				t.Fatal("revive did not land")
			}
			again := collect(t, e, q, WithPlan(tc.plan))
			if canonical(again) != canonical(want) {
				t.Fatal("post-revival result differs")
			}
			if again.Stats.RetryCount != 0 {
				t.Fatalf("post-revival RetryCount = %d", again.Stats.RetryCount)
			}
		})
	}
}

// TestHeartbeatRecoversPartitionedWorker: the engine hands its heartbeat
// options to the cluster. A worker partitioned mid-query raises no error
// anywhere — its frames just stop — so only the prober can declare it
// dead; the query must then finish on the survivors through a retry, with
// the fault-free rows, before the deadline. The timeout is 100 probe
// intervals: at 10, the race detector's pauses got healthy workers
// declared dead too.
func TestHeartbeatRecoversPartitionedWorker(t *testing.T) {
	e := openTest(t, Options{Workers: 3, MaxQueryRetries: 3, RetryBackoff: time.Millisecond,
		HeartbeatInterval: 2 * time.Millisecond, HeartbeatTimeout: 200 * time.Millisecond})
	faultTestGraph(e)
	q := "?x,?y <- ?x e+ ?y"
	probe := cluster.NewFaultPlan()
	e.Cluster().InjectFaults(probe)
	want := collect(t, e, q, WithPlan(PlanGld))
	total := probe.Phases()
	if total < 2 {
		t.Fatalf("query ran only %d phases; cannot partition mid-execution", total)
	}

	part := cluster.NewFaultPlan()
	part.PartitionWorkerID = 1
	part.PartitionAtPhase = total/2 + 1
	e.Cluster().InjectFaults(part)
	defer e.Cluster().InjectFaults(nil)
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.QueryCollect(context.Background(), q, WithPlan(PlanGld))
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if canonical(o.res) != canonical(want) {
			t.Fatalf("recovered result differs from fault-free run: %d vs %d rows", len(o.res.Rows), len(want.Rows))
		}
		if o.res.Stats.RecoveredWorkers < 1 {
			t.Fatalf("RecoveredWorkers = %d, want the partitioned worker recovered", o.res.Stats.RecoveredWorkers)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("partitioned worker hung the query; the engine's heartbeat did not fire")
	}
}

// TestRetryDisabled: negative MaxQueryRetries turns retries off — the
// typed worker failure surfaces directly.
func TestRetryDisabled(t *testing.T) {
	e := openTest(t, Options{Workers: 3, MaxQueryRetries: -1})
	faultTestGraph(e)
	kill := cluster.NewFaultPlan()
	kill.KillWorkerID = 1
	kill.KillAtPhase = 2
	e.Cluster().InjectFaults(kill)
	defer e.Cluster().InjectFaults(nil)
	_, err := e.QueryCollect(context.Background(), "?x,?y <- ?x e+ ?y", WithPlan(PlanGld))
	var fe *cluster.FailureError
	if !errors.As(err, &fe) {
		t.Fatalf("expected *cluster.FailureError, got %v", err)
	}
	if fe.Class != cluster.WorkerFailure || fe.Worker != 1 || fe.Phase == 0 {
		t.Fatalf("failure context incomplete: %+v", fe)
	}
}

// TestRetriesBoundedNoStorm: a persistently flaky link (every frame
// dropped) must exhaust MaxQueryRetries and stop — a handful of attempts,
// not a storm — without evicting healthy workers.
func TestRetriesBoundedNoStorm(t *testing.T) {
	e := openTest(t, Options{Workers: 2, MaxQueryRetries: 2, RetryBackoff: time.Millisecond})
	faultTestGraph(e)
	flaky := cluster.NewFaultPlan()
	flaky.DropFrameEvery = 1
	e.Cluster().InjectFaults(flaky)
	defer e.Cluster().InjectFaults(nil)
	_, err := e.QueryCollect(context.Background(), "?x,?y <- ?x e+ ?y", WithPlan(PlanGld))
	if err == nil {
		t.Fatal("query over an all-dropping link should fail")
	}
	if c := cluster.Classify(context.Background(), err); c != cluster.WorkerFailure {
		t.Fatalf("classified as %v: %v", c, err)
	}
	// 1 original + 2 retries, each failing within its first phases: the
	// phase count proves the attempts stayed bounded.
	if p := flaky.Phases(); p < 3 || p > 12 {
		t.Fatalf("ran %d phases across attempts, want 3..12 (no retry storm)", p)
	}
	// Dropped frames are link trouble, not worker death: nobody evicted.
	if live := len(e.Cluster().LiveWorkers()); live != 2 {
		t.Fatalf("live workers = %d, want 2", live)
	}
}

// TestMinWorkersFailsFast: losing workers below the MinWorkers floor is a
// fast typed error — at retry time and for every query thereafter.
func TestMinWorkersFailsFast(t *testing.T) {
	e := openTest(t, Options{Workers: 3, MinWorkers: 3,
		MaxQueryRetries: 3, RetryBackoff: time.Millisecond})
	faultTestGraph(e)
	kill := cluster.NewFaultPlan()
	kill.KillWorkerID = 2
	kill.KillAtPhase = 2
	e.Cluster().InjectFaults(kill)
	defer e.Cluster().InjectFaults(nil)

	start := time.Now()
	_, err := e.QueryCollect(context.Background(), "?x,?y <- ?x e+ ?y", WithPlan(PlanGld))
	if !errors.Is(err, ErrInsufficientWorkers) {
		t.Fatalf("expected ErrInsufficientWorkers, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("degraded query took %v — it hung instead of failing fast", elapsed)
	}
	// The cluster is now below the floor: later queries fail before
	// executing anything.
	before := kill.Phases()
	if _, err := e.QueryCollect(context.Background(), "?x,?y <- ?x e ?y"); !errors.Is(err, ErrInsufficientWorkers) {
		t.Fatalf("follow-up query: expected ErrInsufficientWorkers, got %v", err)
	}
	if kill.Phases() != before {
		t.Fatal("degraded engine still ran phases for a doomed query")
	}
	// Reviving the worker restores service.
	if !e.Cluster().ReviveWorker(2) {
		t.Fatal("revive did not land")
	}
	if _, err := e.QueryCollect(context.Background(), "?x,?y <- ?x e+ ?y"); err != nil {
		t.Fatalf("query after revival: %v", err)
	}
}

// TestSiblingQueriesSurviveRetry: a worker death fails every in-flight
// query, but each retries independently in its own fresh session (stale
// frames are discarded at demux by tag), and all of them converge to
// correct results.
func TestSiblingQueriesSurviveRetry(t *testing.T) {
	e := openTest(t, Options{Workers: 4, MaxQueryRetries: 4, RetryBackoff: time.Millisecond})
	faultTestGraph(e)
	qa := "?x,?y <- ?x e+ ?y"
	qb := "?x <- n0 e+ ?x"
	wantA := canonical(collect(t, e, qa, WithPlan(PlanGld)))
	wantB := canonical(collect(t, e, qb, WithPlan(PlanSplw)))

	kill := cluster.NewFaultPlan()
	kill.KillWorkerID = 3
	kill.KillAtPhase = 4
	e.Cluster().InjectFaults(kill)
	defer e.Cluster().InjectFaults(nil)

	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		results[0], errs[0] = e.QueryCollect(context.Background(), qa, WithPlan(PlanGld))
	}()
	go func() {
		defer wg.Done()
		results[1], errs[1] = e.QueryCollect(context.Background(), qb, WithPlan(PlanSplw))
	}()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("sibling queries failed: %v / %v", errs[0], errs[1])
	}
	if canonical(results[0]) != wantA {
		t.Fatal("query A result corrupted by concurrent retry")
	}
	if canonical(results[1]) != wantB {
		t.Fatal("query B result corrupted by concurrent retry")
	}
	if results[0].Stats.RetryCount+results[1].Stats.RetryCount == 0 {
		t.Fatal("the injected kill retried neither query — injection missed")
	}
}

// countFDs counts this process's open file descriptors (Linux).
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count fds: %v", err)
	}
	return len(ents)
}

// TestCloseNotNeededForPgplwSpillDescriptors: a Ppg_plw query under a
// starved budget spills accumulator runs, and every spill
// descriptor it opened is closed by the time QueryCollect returns — before
// Engine.Close and without waiting for a garbage collection to run
// finalizers. Nothing the query built outlives it on a worker.
func TestCloseNotNeededForPgplwSpillDescriptors(t *testing.T) {
	e, err := Open(Options{Workers: 2, TaskMemBytes: 1 << 12, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		e.AddTriple(fmt.Sprintf("n%d", i), "e", fmt.Sprintf("n%d", i+1))
	}
	// The first file the process opens may start the runtime's poller,
	// whose descriptors stay open for the life of the process; open one
	// before taking the baseline.
	f, err := os.CreateTemp(t.TempDir(), "warm")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	base := countFDs(t)
	res, err := e.QueryCollect(context.Background(), "?x,?y <- ?x e+ ?y", WithPlan(PlanPgplw))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Spills == 0 {
		t.Fatalf("budget did not force spills; the test exercises nothing (stats=%+v)", res.Stats)
	}
	if n := countFDs(t); n > base {
		t.Fatalf("%d fds open after the query returned, baseline %d: its spill descriptors outlive it", n, base)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
