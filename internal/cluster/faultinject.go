package cluster

import (
	"errors"
	"sync/atomic"
	"time"
)

// Deterministic fault injection: a FaultPlan armed on a cluster
// (InjectFaults) perturbs execution at two well-defined points — the start
// of every phase (kill-worker-at-phase-N, partition-worker-at-phase-N) and
// every data-plane frame leaving a node (drop-once, delay-once,
// duplicate-once). Both points count events in deterministic order for a
// single in-flight query, so a test can aim a fault at "the 5th phase" or
// "the 12th frame" and assert the failure surfaces where the taxonomy says
// it must. Counters are cluster-global: deterministic aiming assumes one
// query in flight (concurrent sessions interleave the counts).
type FaultPlan struct {
	// KillWorkerID/KillAtPhase mark the worker dead when the phase counter
	// reaches KillAtPhase — a clean crash: the next barrier fails fast with
	// a typed WorkerFailure naming the worker and phase. -1 disables.
	KillWorkerID int
	KillAtPhase  int64

	// PartitionWorkerID/PartitionAtPhase silently drop every frame to or
	// from the worker (heartbeats included) once the phase counter reaches
	// PartitionAtPhase — a network partition: nothing errors locally, and
	// only the heartbeat prober can notice. -1 disables.
	PartitionWorkerID int
	PartitionAtPhase  int64

	// DropFrameAt fails the Nth data frame with ErrInjectedDrop and marks
	// the owning session failed — both ends of a broken connection observe
	// it, like a TCP reset. 0 disables.
	DropFrameAt int64

	// DropFrameEvery drops every Nth data frame the same way — a
	// persistently flaky link, for testing that retries stay bounded when
	// the failure does not go away. 0 disables.
	DropFrameEvery int64

	// DelayFrameAt stalls the Nth data frame for Delay before sending it.
	// 0 disables.
	DelayFrameAt int64
	Delay        time.Duration

	// DuplicateFrameAt sends the Nth data frame twice. The receiver's
	// mailbox drops the second copy by its ordinal, so neither its rows nor
	// — for a Last frame — its sender are counted twice. 0 disables.
	DuplicateFrameAt int64

	phases      atomic.Int64
	frames      atomic.Int64
	partitioned atomic.Bool
}

// NewFaultPlan returns a plan with every fault disabled.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{KillWorkerID: -1, PartitionWorkerID: -1}
}

// Phases returns how many phases have been requested since the plan was
// armed, including those refused because their session had already
// failed or been cancelled.
func (p *FaultPlan) Phases() int64 { return p.phases.Load() }

// Frames returns how many data frames the plan has inspected.
func (p *FaultPlan) Frames() int64 { return p.frames.Load() }

// ErrInjectedDrop marks a frame dropped by a FaultPlan; Classify treats it
// as a WorkerFailure, like the real connection failure it simulates.
var ErrInjectedDrop = errors.New("cluster: injected frame drop (simulated connection failure)")

// InjectFaults arms (or with nil, disarms) a fault plan on the cluster.
// A plan observes events from the moment it is armed; arm a fresh plan per
// experiment rather than reusing one with advanced counters.
func (c *Cluster) InjectFaults(p *FaultPlan) { c.faults.Store(p) }

// phaseStarting advances the phase counter and fires phase-targeted
// faults.
func (p *FaultPlan) phaseStarting(c *Cluster) {
	n := p.phases.Add(1)
	if p.KillWorkerID >= 0 && n == p.KillAtPhase {
		c.KillWorker(p.KillWorkerID)
	}
	if p.PartitionWorkerID >= 0 && n == p.PartitionAtPhase {
		p.partitioned.Store(true)
	}
}

type faultAction int

const (
	faultPass   faultAction = iota
	faultDrop               // fail the send and the owning session
	faultSilent             // swallow the frame with no local error
	faultDup                // send the frame twice
)

// frameAction decides the fate of one outbound frame. A partitioned
// worker's traffic (either direction, heartbeats included) vanishes
// silently; otherwise heartbeats pass untouched — only data frames
// advance the frame counter, so frame-targeted faults aim at query
// traffic, not at the prober's schedule.
func (p *FaultPlan) frameAction(to int, msg *DataMsg) (faultAction, time.Duration) {
	if p.partitioned.Load() &&
		(to == p.PartitionWorkerID || msg.From == p.PartitionWorkerID) {
		return faultSilent, 0
	}
	if msg.Kind == KindHeartbeat {
		return faultPass, 0
	}
	n := p.frames.Add(1)
	switch {
	case p.DropFrameAt != 0 && n == p.DropFrameAt:
		return faultDrop, 0
	case p.DropFrameEvery != 0 && n%p.DropFrameEvery == 0:
		return faultDrop, 0
	case p.DelayFrameAt != 0 && n == p.DelayFrameAt:
		return faultPass, p.Delay
	case p.DuplicateFrameAt != 0 && n == p.DuplicateFrameAt:
		return faultDup, 0
	}
	return faultPass, 0
}
