package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// This file is the concurrency layer of the cluster: a Session is one
// in-flight query's private execution epoch. Every data-plane message
// carries the session's tag, a per-node demultiplexer goroutine routes
// arriving frames into per-session mailboxes, and each session owns its
// own Metrics and per-worker memory gauges — so any number of queries can
// run phases on one cluster concurrently without their frames, counters or
// spill attribution interleaving. The session is the only way to run on
// the cluster: the driver-facing primitives (RunPhase, Parallelize,
// BroadcastRel, Collect, Distinct, Free, …) are Session methods, and the
// session's Metrics are the one traffic ledger — each frame is counted
// once, in the session that sent it. Cluster.Parallelize, a scatter under
// a throwaway session, is the one exception.

// errSessionClosed is returned by receives on a closed session.
var errSessionClosed = errors.New("cluster: session closed")

// errSessionFailed is the mailbox-level sentinel for a session aborted by
// a detected member failure; recvNode translates it to the recorded
// FailureError.
var errSessionFailed = errors.New("cluster: session failed")

// errTransportDown is returned by receives once the transport has shut
// down under a live, uncancelled session.
var errTransportDown = errors.New("cluster: transport shut down mid-exchange")

// mailbox is one session's inbound frame queue for one node: an unbounded
// FIFO so the per-node demultiplexer never blocks on a slow session (which
// would head-of-line-block every other session's traffic on that node).
// Single consumer (the session's worker goroutine for that node), any
// number of producers (the demux goroutine; in practice one).
//
// It is also where at-most-once absorption is enforced. Receivers append
// the frames of set-valued transfers without re-hashing them, so a frame
// delivered twice must not reach them twice. Within a session every sender
// issues its transfers one after the other with increasing Seq, numbers the
// frames of each from Ord 0, and both transports deliver one sender's
// frames to one receiver in order; so the frames a mailbox admits from one
// sender are strictly increasing in (Seq, Ord), and anything else is a
// duplicate. Frames of another execution epoch never get this far (the
// demultiplexer routes by tag).
type mailbox struct {
	mu     sync.Mutex
	q      []*DataMsg
	last   map[int]framePos // per sender: the newest frame admitted
	closed bool
	notify chan struct{} // cap 1: wake the (single) waiting consumer
}

// framePos orders the frames one sender addresses to one receiver.
type framePos struct {
	seq int64
	ord uint32
}

func newMailbox() *mailbox {
	return &mailbox{last: make(map[int]framePos), notify: make(chan struct{}, 1)}
}

// put enqueues a message, dropping it when the mailbox is closed (a stale
// frame of a finished or cancelled session) or when it does not advance
// its sender's (Seq, Ord) position (a duplicated frame).
func (m *mailbox) put(msg *DataMsg) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if at, seen := m.last[msg.From]; seen &&
		(msg.Seq < at.seq || msg.Seq == at.seq && msg.Ord <= at.ord) {
		m.mu.Unlock()
		return
	}
	m.last[msg.From] = framePos{msg.Seq, msg.Ord}
	m.q = append(m.q, msg)
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// close drops queued messages and wakes any waiting consumer.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.q = nil
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// get dequeues the next message, blocking until one arrives or the session
// context is cancelled, the session records a member failure, the
// transport shuts down, the per-call stop channel closes (nil = never),
// or the mailbox itself is closed.
func (m *mailbox) get(ctx context.Context, transportDone, fail, stop <-chan struct{}) (*DataMsg, error) {
	for {
		m.mu.Lock()
		if len(m.q) > 0 {
			msg := m.q[0]
			m.q = m.q[1:]
			if len(m.q) == 0 {
				m.q = nil // let the drained backing array go
			}
			m.mu.Unlock()
			return msg, nil
		}
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return nil, errSessionClosed
		}
		select {
		case <-m.notify:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-fail:
			// The context wins a race with failure detection: a query the
			// caller cancelled must never report as a worker failure.
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			return nil, errSessionFailed
		case <-transportDone:
			// Same precedence for a transport shutdown racing cancellation.
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			return nil, errTransportDown
		case <-stop:
			return nil, errSessionClosed
		}
	}
}

// Session is one query's execution epoch on a cluster: a unique exchange
// tag (frames of concurrent sessions are demultiplexed by it and can never
// interleave), a cancellation context consulted at every barrier, the
// Metrics counting exactly this session's traffic, and — under memory
// governance — one child gauge per worker, so the session's spill events
// are attributable to it alone while the worker's own gauge keeps the
// cumulative view.
//
// A session is not itself a synchronization domain: one Session serves
// one query's driver goroutine at a time. Run concurrent queries on
// separate Sessions.
type Session struct {
	c   *Cluster
	ctx context.Context
	tag int64
	// epoch is the membership version this session opened under; members
	// holds the physical ids of its workers in rank order. Both are fixed
	// at open: a membership change (Recover/ReviveWorker) affects only
	// sessions opened afterwards.
	epoch   int64
	members []int
	boxes   []*mailbox // per worker (physical id), driver's last
	gauges  []*core.MemGauge
	m       Metrics
	closed  atomic.Bool

	// Failure detection: the first detected member failure is recorded
	// once and failCh closed, aborting every barrier of this session —
	// and only this session; sibling sessions observe nothing.
	failMu    sync.Mutex
	failedErr error
	failCh    chan struct{}
}

// NewSession opens an execution epoch whose barriers abort when ctx is
// cancelled (nil means context.Background()). Close it when the query
// finishes — an unclosed session keeps receiving (and buffering) frames
// addressed to its tag.
func (c *Cluster) NewSession(ctx context.Context) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(c.workers)
	s := &Session{c: c, ctx: ctx, tag: c.nextTag.Add(1), boxes: make([]*mailbox, n+1),
		failCh: make(chan struct{})}
	for i := range s.boxes {
		s.boxes[i] = newMailbox()
	}
	// Snapshot membership and epoch atomically with respect to
	// Recover/ReviveWorker (both hold c.mu): every non-removed worker is a
	// member. A dead-but-unrecovered worker joins too — its first barrier
	// then fails with a typed error naming it, which is the signal the
	// retry layer recovers from.
	c.mu.Lock()
	s.epoch = c.epoch.Load()
	s.members = make([]int, 0, n)
	for _, w := range c.workers {
		if !w.removed.Load() {
			s.members = append(s.members, w.id)
		}
	}
	c.mu.Unlock()
	if c.cfg.TaskMemBytes > 0 {
		// One child gauge per worker per session: the budget is per task
		// (each in-flight query gets the full TaskMemBytes on each worker),
		// the accounting is exact per query, and every charge and spill is
		// mirrored into the worker's lifetime gauge.
		s.gauges = make([]*core.MemGauge, n)
		for i, w := range c.workers {
			s.gauges[i] = core.NewMemGaugeChild(w.gauge)
		}
	}
	c.sessMu.Lock()
	c.sessions[s.tag] = s
	c.sessMu.Unlock()
	return s
}

// detectFailure records the session's first member failure and aborts its
// barriers. Later calls are ignored: the first failure is the cause, the
// rest are fallout.
func (s *Session) detectFailure(err error) {
	s.failMu.Lock()
	if s.failedErr == nil {
		s.failedErr = err
		close(s.failCh)
	}
	s.failMu.Unlock()
}

// failErr returns the recorded member failure (nil while healthy).
func (s *Session) failErr() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failedErr
}

// hasMember reports whether the physical worker id is a session member.
func (s *Session) hasMember(id int) bool {
	for _, m := range s.members {
		if m == id {
			return true
		}
	}
	return false
}

// Epoch returns the membership version this session opened under.
func (s *Session) Epoch() int64 { return s.epoch }

// Close unregisters the session and drops any frames still addressed to
// it. Idempotent; the session must not be used afterwards.
func (s *Session) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.c.sessMu.Lock()
	delete(s.c.sessions, s.tag)
	s.c.sessMu.Unlock()
	for _, b := range s.boxes {
		b.close()
	}
}

// Cluster returns the underlying cluster.
func (s *Session) Cluster() *Cluster { return s.c }

// Context returns the session's cancellation context.
func (s *Session) Context() context.Context { return s.ctx }

// Err returns the session context's error (nil while the session is live).
func (s *Session) Err() error { return s.ctx.Err() }

// Metrics returns the session-local counters: exactly this session's
// traffic, regardless of what other queries run concurrently.
func (s *Session) Metrics() *Metrics { return &s.m }

// Gauges returns the session's per-worker memory gauges (nil slice when
// governance is off): the per-query spill counters. The workers' lifetime
// gauges (Cluster.Gauges) aggregate across sessions.
func (s *Session) Gauges() []*core.MemGauge { return s.gauges }

// NumWorkers returns the session's member count — the number of workers
// its phases run on, which after a recovery can be smaller than the
// cluster's physical capacity.
func (s *Session) NumWorkers() int { return len(s.members) }

// Config returns the cluster configuration.
func (s *Session) Config() Config { return s.c.cfg }

// NewDataset registers an empty dataset handle with the given schema.
func (s *Session) NewDataset(cols ...string) *Dataset { return s.c.NewDataset(cols...) }

// boxFor returns the session's mailbox for a node id.
func (s *Session) boxFor(node int) *mailbox {
	if node == DriverNode {
		return s.boxes[len(s.boxes)-1]
	}
	return s.boxes[node]
}

// recvNode receives the next frame addressed to this session at a node.
func (s *Session) recvNode(node int, stop <-chan struct{}) (*DataMsg, error) {
	msg, err := s.boxFor(node).get(s.ctx, s.c.transport.Done(), s.failCh, stop)
	if err == errSessionFailed {
		if ferr := s.failErr(); ferr != nil {
			return nil, ferr
		}
	}
	return msg, err
}

// demuxLoop drains one node's transport inbox, routing every frame to the
// mailbox of the session its tag names. Frames for unknown tags — a
// session that was cancelled or already closed — are dropped. One loop per
// node runs for the cluster's lifetime; it never blocks on a session
// (mailboxes are unbounded), so one stuck query cannot stall another's
// traffic.
func (c *Cluster) demuxLoop(node int) {
	inbox := c.transport.Inbox(node)
	done := c.transport.Done()
	for {
		select {
		case msg, ok := <-inbox:
			if !ok {
				return
			}
			if msg.Kind == KindHeartbeat {
				// Liveness traffic is consumed here, never routed to a
				// session: probes are echoed, echoes feed the prober.
				c.handleHeartbeat(node, msg)
				continue
			}
			c.sessMu.RLock()
			s := c.sessions[msg.Tag]
			c.sessMu.RUnlock()
			if s != nil {
				s.boxFor(node).put(msg)
			}
		case <-done:
			return
		}
	}
}
