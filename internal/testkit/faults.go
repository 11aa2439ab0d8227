package testkit

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	distmura "repro"
	"repro/internal/cluster"
	"repro/internal/core"
)

// The fault route: every fuzzed query is also evaluated through the
// engine's full service path (parser → optimizer → retry loop) while a
// deterministic fault plan kills a randomly chosen worker at a randomly
// chosen early phase. The retried result must still match the reference
// relation row for row — the differential check that epoch-bumped retry
// preserves query semantics on arbitrary queries, not just the
// hand-picked ones in the unit tests.

// newFaultEngine opens an engine over the generated graph configured the
// way a resilient deployment would run it: bounded retries with a short
// backoff so the sweep stays fast.
func newFaultEngine(opts Options, g *Graph) (*distmura.Engine, error) {
	tk := distmura.TransportChan
	if opts.Transport == cluster.TransportTCP {
		tk = distmura.TransportTCP
	}
	e, err := distmura.Open(distmura.Options{
		Workers:         opts.Workers,
		Transport:       tk,
		MaxQueryRetries: 3,
		RetryBackoff:    time.Millisecond,
		TaskMemBytes:    opts.TaskMemBytes,
		SpillDir:        opts.SpillDir,
	})
	if err != nil {
		return nil, err
	}
	e.UseGraph(g.G)
	return e, nil
}

// runFaultCase runs one query on the fault engine under an injected
// worker kill, checks the rows against the reference relation, and
// revives the victim so the next case starts at full strength. Queries
// that finish before the kill phase simply run fault-free — the route
// still differentially checks them, and Report.FaultRetries counts how
// many cases actually exercised a retry.
func runFaultCase(e *distmura.Engine, rng *rand.Rand, g *Graph, query string, want *core.Relation, rep *Report) error {
	victim := rng.Intn(e.Cluster().NumWorkers())
	kill := cluster.NewFaultPlan()
	kill.KillWorkerID = victim
	kill.KillAtPhase = int64(1 + rng.Intn(4))
	e.Cluster().InjectFaults(kill)
	res, err := e.QueryCollect(context.Background(), query)
	e.Cluster().InjectFaults(nil)
	e.Cluster().ReviveWorker(victim)
	if err != nil {
		return fmt.Errorf("fault route (kill worker %d at phase %d): %w",
			victim, kill.KillAtPhase, err)
	}
	rep.FaultRoutes++
	rep.FaultRetries += res.Stats.RetryCount

	route := fmt.Sprintf("fault route (kill worker %d at phase %d, %d retries)",
		victim, kill.KillAtPhase, res.Stats.RetryCount)
	return sameRendered(route, g, res.Rows, want)
}
