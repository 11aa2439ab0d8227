// Package cluster is the distributed dataflow substrate of this
// reproduction — the stand-in for Apache Spark in the Dist-µ-RA paper. It
// provides a driver coordinating N workers, each owning partitions of
// datasets in its private store; data moves between nodes only through a
// Transport (in-process channels or real loopback TCP), is deep-copied or
// serialized on the way, and every transfer is metered. The primitives —
// scatter, broadcast, worker-to-worker hash shuffle with a barrier,
// partition-wise set operations, collect — are exactly the operations the
// paper's physical plans (Pgld, Ps_plw, Ppg_plw) are built from, so the
// communication patterns the paper reasons about (one shuffle per fixpoint
// iteration in Pgld versus none in Pplw) are reproduced and measurable.
//
// The cluster serves any number of concurrent queries: each runs inside a
// Session (see session.go) whose tag travels on every frame, so two
// queries' exchanges can never interleave, each query's metrics and spill
// counters are exact, and cancelling one query's context aborts only its
// own barriers. Every data-plane call is a Session method; Parallelize is
// the one Cluster-level copy left.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// TransportKind selects the data plane.
type TransportKind int

const (
	// TransportChan uses in-process channels (fast, still isolated and
	// metered). The default.
	TransportChan TransportKind = iota
	// TransportTCP uses real loopback TCP sockets with binary frames.
	TransportTCP
)

// Config configures a cluster.
type Config struct {
	// Workers is the number of worker nodes (default 4, like the paper's
	// four-machine Spark cluster).
	Workers int
	// Transport selects the data plane (default TransportChan).
	Transport TransportKind
	// TaskMemBytes is the per-task memory budget, in bytes, governing
	// operator-owned state at run time: each session (each in-flight
	// query) gets a child MemGauge with this budget on every worker, and
	// its fixpoint accumulators spill to disk instead of OOMing once over
	// it — or once the worker's cumulative gauge (the sum over concurrent
	// sessions) is over, so overlap cannot multiply a worker's memory.
	// Join indexes are charged to it but stay in memory. 0 (the default)
	// disables governance. It bounds whatever plan runs, so every plan
	// works out of core. Spill runs are
	// read through memory mappings, so a positive budget needs a unix
	// platform; elsewhere New rejects it (errors.ErrUnsupported).
	TaskMemBytes int64
	// SpillDir is where over-budget operators write their temp-file runs
	// ("" = os.TempDir()). Spill files are unlinked on creation and can
	// never outlive their descriptors.
	SpillDir string
	// HeartbeatInterval enables driver→worker liveness probing over the
	// data plane: every interval the driver sends a heartbeat frame to each
	// live worker and each worker echoes it back. A worker silent past
	// HeartbeatTimeout is declared dead and every session it belongs to
	// fails fast with a typed WorkerFailure instead of hanging at a
	// barrier. 0 (the default) disables probing.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a worker may go unheard before being
	// declared dead (default 4× HeartbeatInterval).
	HeartbeatTimeout time.Duration
}

// Cluster is a driver plus N workers.
type Cluster struct {
	cfg       Config
	transport Transport
	workers   []*Worker

	seq     atomic.Int64 // exchange-phase sequence
	nextID  atomic.Int64 // dataset / broadcast ids
	nextTag atomic.Int64 // session tags

	// epoch is the membership version: bumped by Recover and ReviveWorker,
	// stamped on every session so failures name the membership they ran
	// under. Frames of a pre-recovery execution carry the old session's
	// tag, so the demux discards them — stale-epoch traffic can never leak
	// into a retry.
	epoch atomic.Int64

	residents residents // worker-resident broadcasts of bound relations

	faults atomic.Pointer[FaultPlan] // armed fault-injection plan (nil = none)
	health *health                   // heartbeat prober (nil when disabled)

	sessMu   sync.RWMutex
	sessions map[int64]*Session

	// driverGauge is the driver-side analog of a worker's lifetime gauge:
	// per-query driver evaluator gauges are its children, so concurrent
	// queries cannot multiply driver-resident operator memory either. Nil
	// when governance is off.
	driverGauge *core.MemGauge

	mu     sync.Mutex
	closed bool
}

// Worker is one worker node: a private partition store plus a transport
// endpoint. Workers never touch each other's stores.
type Worker struct {
	id      int
	cluster *Cluster
	mu      sync.Mutex // guards store and bcast (concurrent sessions)
	store   map[int64]*core.Relation
	bcast   map[int64]*core.Relation
	// dead marks a crashed/unreachable worker (KillWorker, heartbeat
	// timeout); removed marks one Recover has excluded from membership.
	// A dead-but-not-removed worker still joins new sessions so their
	// first barrier fails with a typed error naming it; a removed worker
	// is invisible until ReviveWorker re-admits it.
	dead    atomic.Bool
	removed atomic.Bool
	gauge   *core.MemGauge
}

// New starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.TaskMemBytes > 0 {
		if err := core.SpillSupported(); err != nil {
			return nil, fmt.Errorf("cluster: TaskMemBytes needs spill runs: %w", err)
		}
	}
	var tr Transport
	var err error
	switch cfg.Transport {
	case TransportTCP:
		tr, err = NewTCPTransport(cfg.Workers)
	default:
		tr = NewChanTransport(cfg.Workers)
	}
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, transport: tr, sessions: make(map[int64]*Session)}
	c.residents.byName = make(map[string]*resident)
	c.residents.byID = make(map[int64]*resident)
	if cfg.TaskMemBytes > 0 {
		c.driverGauge = core.NewMemGauge(cfg.TaskMemBytes, cfg.SpillDir)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &Worker{
			id:      i,
			cluster: c,
			store:   make(map[int64]*core.Relation),
			bcast:   make(map[int64]*core.Relation),
		}
		if cfg.TaskMemBytes > 0 {
			// One gauge per worker for the worker's whole lifetime: the
			// cumulative view every session's child gauge mirrors into,
			// like a per-executor memory meter.
			w.gauge = core.NewMemGauge(cfg.TaskMemBytes, cfg.SpillDir)
		}
		c.workers = append(c.workers, w)
	}
	c.epoch.Store(1)
	if cfg.HeartbeatInterval > 0 {
		// Set before the demux loops start: they deliver echoes to it.
		c.health = newHealth(c, cfg.HeartbeatInterval, cfg.HeartbeatTimeout)
	}
	// One demultiplexer per node routes inbound frames to their session's
	// mailbox for the cluster's lifetime; they exit when the transport
	// shuts down.
	for i := 0; i < cfg.Workers; i++ {
		go c.demuxLoop(i)
	}
	go c.demuxLoop(DriverNode)
	if c.health != nil {
		go c.health.probeLoop()
	}
	return c, nil
}

// NumWorkers returns the worker count.
func (c *Cluster) NumWorkers() int { return len(c.workers) }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Close shuts the cluster down by closing the transport, which also stops
// the demultiplexers and unblocks any session still at a barrier.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.transport.Close()
}

// KillWorker marks a worker dead (failure injection): subsequent phases
// involving it fail fast with a typed WorkerFailure naming the worker and
// phase. It reports whether this call transitioned the worker to dead —
// false for out-of-range ids and already-dead workers, so fault tests can
// assert the injection landed.
func (c *Cluster) KillWorker(id int) bool {
	if id < 0 || id >= len(c.workers) {
		return false
	}
	return c.workers[id].dead.CompareAndSwap(false, true)
}

// Epoch returns the current membership version. It starts at 1 and is
// bumped by Recover and ReviveWorker; sessions stamp it on their failures.
func (c *Cluster) Epoch() int64 { return c.epoch.Load() }

// LiveWorkers returns the physical ids of workers that are neither dead
// nor removed — the membership a new session would run on after Recover.
func (c *Cluster) LiveWorkers() []int {
	out := make([]int, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.removed.Load() && !w.dead.Load() {
			out = append(out, w.id)
		}
	}
	return out
}

// Recover excludes every dead worker from the membership, discards its
// state (its partitions are gone with it — callers re-partition their
// driver-held data onto the survivors), and bumps the epoch if anything
// changed, retiring the resident broadcasts of the old epoch. It returns
// the ids removed by this call and the live count remaining, so callers
// can fail fast when the cluster has degraded below their minimum instead
// of retrying into a hang.
func (c *Cluster) Recover() (removed []int, live int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.removed.Load() {
			continue
		}
		if w.dead.Load() {
			w.removed.Store(true)
			w.clearState()
			removed = append(removed, w.id)
			continue
		}
		live++
	}
	if len(removed) > 0 {
		c.residents.retireAll(c, c.epoch.Add(1))
	}
	return removed, live
}

// ReviveWorker re-admits a dead or removed worker with a clean slate — a
// restarted process rejoining the cluster — and bumps the epoch, retiring
// the resident broadcasts of the old epoch (the revived worker holds none
// of them). New sessions include it; sessions opened before the revival
// never route to it (their membership is fixed at open). Returns false
// when id is out of range or the worker is already live.
func (c *Cluster) ReviveWorker(id int) bool {
	if id < 0 || id >= len(c.workers) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if !w.dead.Load() && !w.removed.Load() {
		return false
	}
	w.clearState()
	w.dead.Store(false)
	w.removed.Store(false)
	if c.health != nil {
		c.health.reset(id)
	}
	c.residents.retireAll(c, c.epoch.Add(1))
	return true
}

// clearState discards a worker's partitions and broadcasts — the state a
// crashed process loses.
func (w *Worker) clearState() {
	w.mu.Lock()
	w.store = make(map[int64]*core.Relation)
	w.bcast = make(map[int64]*core.Relation)
	w.mu.Unlock()
}

// send is the single data-plane choke point: every outbound frame —
// shuffle, scatter, broadcast, collect, heartbeat — passes through it, so
// an armed FaultPlan observes (and can perturb) the complete frame stream.
func (c *Cluster) send(to int, msg *DataMsg) error {
	if p := c.faults.Load(); p != nil {
		act, delay := p.frameAction(to, msg)
		switch act {
		case faultSilent:
			return nil
		case faultDrop:
			err := fmt.Errorf("cluster: send to node %d: %w", to, ErrInjectedDrop)
			// A broken connection is observed at both ends: the sender gets
			// the error, and the owning session is failed so receivers
			// waiting on the vanished frame abort instead of hanging.
			c.failSessionOf(msg, to, err)
			return err
		case faultDup:
			if err := c.transport.Send(to, msg); err != nil {
				return err
			}
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	}
	return c.transport.Send(to, msg)
}

// failSessionOf marks the session owning msg's tag failed with a typed
// WorkerFailure blaming the unreachable peer.
func (c *Cluster) failSessionOf(msg *DataMsg, to int, err error) {
	c.sessMu.RLock()
	s := c.sessions[msg.Tag]
	c.sessMu.RUnlock()
	if s == nil {
		return
	}
	worker := to
	if worker < 0 {
		worker = msg.From
	}
	s.detectFailure(&FailureError{Class: WorkerFailure, Worker: worker,
		Session: s.tag, Epoch: s.epoch, Phase: msg.Seq >> 20, Err: err})
}

// Dataset is a handle to a relation partitioned across the workers (the
// RDD/Dataset analog).
type Dataset struct {
	c    *Cluster
	id   int64
	cols []string
}

// Cols returns the dataset schema.
func (d *Dataset) Cols() []string { return d.cols }

// Broadcast is a handle to a relation replicated on every worker.
type Broadcast struct {
	id int64
}

// Ctx is the worker-side view during a phase: partition access, broadcast
// access and the shuffle primitive. Phases are SPMD: every worker runs the
// same closure; all workers of one session must perform the same sequence
// of Exchange calls.
type Ctx struct {
	w        *Worker
	rank     int // dense index of this worker among the session's members
	sess     *Session
	phaseSeq int64
	calls    int
	// pending buffers messages that arrived ahead of the barrier this
	// worker is currently waiting on: a fast peer may already be sending
	// for the phase's next Exchange call while this worker still collects
	// the current one.
	pending []*DataMsg
}

// recvSeq receives the next message of the given exchange sequence,
// buffering messages that belong to later exchanges of the same phase.
func (ctx *Ctx) recvSeq(seq int64) (*DataMsg, error) {
	for i, m := range ctx.pending {
		if m.Seq == seq {
			ctx.pending = append(ctx.pending[:i], ctx.pending[i+1:]...)
			return m, nil
		}
	}
	for {
		// Under fault injection a dead session can keep receiving stale
		// duplicate shuffle frames; check the abort signal each turn
		// rather than relying on recvNode to notice.
		if err := ctx.sess.Err(); err != nil {
			return nil, err
		}
		msg, err := ctx.sess.recvNode(ctx.w.id, nil)
		if err != nil {
			return nil, err
		}
		if msg.Seq == seq {
			return msg, nil
		}
		if msg.Kind == KindShuffle && msg.Seq > seq {
			ctx.pending = append(ctx.pending, msg)
			continue
		}
		return nil, protocolViolation(msg, "frame of another exchange while waiting for seq=%d", seq)
	}
}

// WorkerID returns this task's dense rank among the session's members
// (0-based, contiguous, < NumWorkers). Plan code sizes and indexes
// per-worker state by it, so after a membership change the rank space
// stays dense even though physical node ids have gaps. On a full-strength
// cluster rank and physical id coincide.
func (ctx *Ctx) WorkerID() int { return ctx.rank }

// NodeID returns this worker's physical node id — stable across
// membership changes, possibly non-contiguous after a recovery. Use it
// for addressing and diagnostics, WorkerID for per-worker state.
func (ctx *Ctx) NodeID() int { return ctx.w.id }

// NumWorkers returns the number of members in this session — the size of
// the rank space, not the cluster's physical capacity.
func (ctx *Ctx) NumWorkers() int { return len(ctx.sess.members) }

// Context returns the session's cancellation context: worker-side loops
// hand it to the evaluators they run so a cancelled query stops iterating.
func (ctx *Ctx) Context() context.Context { return ctx.sess.ctx }

// Gauge returns this worker's memory gauge for the current session (nil
// when Config.TaskMemBytes is 0). Plan code hands it to the operators it
// runs on this worker — fixpoint accumulators, shuffle filters, evaluator
// join indexes — so one query's task on this worker shares one budget and
// its spill events are attributed to that query alone.
func (ctx *Ctx) Gauge() *core.MemGauge {
	if ctx.sess.gauges != nil {
		return ctx.sess.gauges[ctx.w.id]
	}
	return ctx.w.gauge
}

// DriverGauge returns the cluster-lifetime driver-side gauge (nil when
// governance is off). Driver-resident per-query gauges should be created
// as its children (core.NewMemGaugeChild) so the cumulative driver budget
// is enforced across concurrent queries.
func (c *Cluster) DriverGauge() *core.MemGauge { return c.driverGauge }

// Gauges returns the per-worker lifetime memory gauges (nil entries when
// governance is off). They aggregate every session's charges and spill
// counters; per-query figures live on Session.Gauges.
func (c *Cluster) Gauges() []*core.MemGauge {
	out := make([]*core.MemGauge, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.gauge
	}
	return out
}

// Partition returns this worker's partition of ds (empty if unset).
func (ctx *Ctx) Partition(ds *Dataset) *core.Relation {
	ctx.w.mu.Lock()
	p, ok := ctx.w.store[ds.id]
	ctx.w.mu.Unlock()
	if ok {
		return p
	}
	return core.NewRelation(ds.cols...)
}

// SetPartition replaces this worker's partition of ds.
func (ctx *Ctx) SetPartition(ds *Dataset, rel *core.Relation) {
	if !core.ColsEqual(rel.Cols(), ds.cols) {
		panic(fmt.Sprintf("cluster: partition schema %v does not match dataset %v", rel.Cols(), ds.cols))
	}
	ctx.w.mu.Lock()
	ctx.w.store[ds.id] = rel
	ctx.w.mu.Unlock()
}

// Exchange hash-partitions rel by the given columns across all workers and
// returns the rows this worker receives, merged with set semantics. All
// workers of the phase must call Exchange the same number of times in the
// same order; each call is one shuffle (one synchronization barrier, rows
// crossing the network counted in the metrics). byCols nil means hash the
// whole row.
func (ctx *Ctx) Exchange(rel *core.Relation, byCols []string) (*core.Relation, error) {
	cols := rel.Cols()
	at := make([]int, 0, len(cols))
	if byCols == nil {
		for i := range cols {
			at = append(at, i)
		}
	} else {
		for _, col := range byCols {
			idx := core.ColIndex(cols, col)
			if idx < 0 {
				return nil, fmt.Errorf("cluster: exchange column %q not in schema %v", col, cols)
			}
			at = append(at, idx)
		}
	}
	// Route every row once, counting rows per owner, so each peer's bucket
	// is allocated once at its exact size.
	n := ctx.NumWorkers()
	owner := make([]int32, rel.Len())
	count := make([]int, n)
	for i := range owner {
		o := core.Owner(core.HashValuesAt(rel.RowAt(i), at), n)
		owner[i] = int32(o)
		count[o]++
	}
	arity := len(cols)
	buckets := make([][]*core.Batch, n)
	for p := range buckets {
		if p != ctx.rank {
			buckets[p] = []*core.Batch{core.NewBatchValues(arity, 0, make([]core.Value, 0, count[p]*arity))}
		}
	}
	out := core.NewRelation(cols...)
	for i, o := range owner {
		if row := rel.RowAt(i); int(o) == ctx.rank {
			// Own bucket stays local: straight into the result (one copy,
			// no network).
			out.Add(row)
		} else {
			buckets[o][0].AppendRow(row)
		}
	}
	ctx.sess.m.LocalRecords.Add(int64(count[ctx.rank]))
	if err := ctx.shuffle(arity, buckets, func(b *core.Batch) { out.AddBatch(b) }); err != nil {
		return nil, err
	}
	return out, nil
}

// ShipInto is the global-loop plan's shuffle of rows the sender has
// already routed (core.Exchange): wins[p] holds the rows owned by peer p,
// windows of the sender's shuffle filter for p, and every frame arriving
// from a peer is absorbed straight into the receiver's fixpoint
// accumulator x — the set difference and union of the semi-naive step
// happen at frame-decode time, and the rows new to x are its next window.
// The sender's own rows are already in x (wins[WorkerID()] is nil); they
// never reach the shuffle and are not counted as LocalRecords.
func (ctx *Ctx) ShipInto(wins [][]*core.Relation, x *core.Accumulator) error {
	out := make([][]*core.Batch, len(wins))
	for p, ws := range wins {
		for _, w := range ws {
			out[p] = append(out[p], w.AsBatch())
		}
	}
	// One absorb handle for the whole shuffle: the routing scratch is
	// reused across every received frame.
	ab := x.Absorber()
	return ctx.shuffle(x.Arity(), out, func(b *core.Batch) { ab.AbsorbBatch(b) })
}

// shuffle is the barrier of one SPMD shuffle call, shared by Exchange and
// ShipInto: out[p] holds this worker's rows for peer rank p (nil at its
// own rank), shipped from a goroutine while this worker receives; every
// frame arriving from a peer is checked against arity, handed to keep,
// which copies its rows out, and released.
func (ctx *Ctx) shuffle(arity int, out [][]*core.Batch, keep func(*core.Batch)) error {
	c := ctx.w.cluster
	s := ctx.sess
	n := len(s.members)
	ctx.calls++
	seq := ctx.phaseSeq<<20 | int64(ctx.calls)
	if ctx.rank == 0 {
		// One barrier per SPMD shuffle call; count it once.
		s.m.ShufflePhases.Add(1)
	}
	// Ship the buckets from a goroutine while this worker receives: every
	// worker keeps draining its inbox while its own frames trickle out, so
	// a full inbox can never deadlock the barrier even though a bucket may
	// span many budget-sized frames.
	sendErr := make(chan error, 1)
	go func() {
		// A failed peer must not starve the others: keep sending the
		// remaining buckets so every reachable peer still sees its Last
		// frame, and surface the first error after the barrier.
		var firstErr error
		for peer := 0; peer < n; peer++ {
			if peer == ctx.rank {
				continue
			}
			if err := c.sendFrames(s.members[peer], KindShuffle, s.tag, seq, ctx.w.id, 0, arity, out[peer],
				&s.m.ShuffleRecords, &s.m.ShuffleBytes); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sendErr <- firstErr
	}()
	// Barrier: frames arrive until every peer's Last frame is in. A
	// cancelled session context aborts the wait.
	for done := 0; done < n-1; {
		msg, err := ctx.recvSeq(seq)
		if err != nil {
			return err
		}
		if err := checkArity(msg, arity); err != nil {
			return err
		}
		keep(msg.Batch)
		if msg.Last {
			done++
		}
		msg.Release()
	}
	return <-sendErr
}

// sendFrames ships the rows of wins — the windows of one logical
// transfer, in order, all of the given arity — to a node as one
// frameWriter transfer.
func (c *Cluster) sendFrames(to int, kind MsgKind, tag, seq int64, from int, id int64,
	arity int, wins []*core.Batch, recs, bytes *atomic.Int64) error {
	total := 0
	for _, w := range wins {
		total += w.Len()
	}
	fw := c.newFrameWriter(to, &DataMsg{Kind: kind, Tag: tag, Seq: seq, From: from, ID: id}, arity, total, recs, bytes)
	defer fw.close()
	for _, w := range wins {
		if err := fw.write(w); err != nil {
			return err
		}
	}
	return fw.finish()
}

// frameWriter cuts one logical transfer of a known row count into
// budget-sized wire frames of core.BatchRowsFor(arity) rows, numbered from
// ordinal 0, the final one flagged Last. A stretch of a written batch that
// fills a frame, or ends the transfer, leaves as a zero-copy view; the
// other rows are gathered into a pooled frame buffer, so a transfer costs
// the frames its row count needs however many small batches it comes in.
// Every frame is handed to the transport before write returns (both
// transports copy or encode it in Send), so a written batch may be reused
// as soon as write returns. An empty transfer still sends one empty Last
// frame so barrier receivers can count completed senders. Record/byte
// metrics are added per frame.
type frameWriter struct {
	c           *Cluster
	to          int
	head        *DataMsg // kind, tag, seq, sender and id of every frame
	arity, step int
	total, sent int
	ord         uint32
	buf         *[]core.Value // the gather frame's pooled buffer
	gather      *core.Batch
	recs, bytes *atomic.Int64
}

func (c *Cluster) newFrameWriter(to int, head *DataMsg, arity, total int, recs, bytes *atomic.Int64) *frameWriter {
	return &frameWriter{c: c, to: to, head: head, arity: arity, step: core.BatchRowsFor(arity),
		total: total, recs: recs, bytes: bytes}
}

func (fw *frameWriter) emit(b *core.Batch) error {
	fw.sent += b.Len()
	h := fw.head
	msg := &DataMsg{Kind: h.Kind, Tag: h.Tag, Seq: h.Seq, From: h.From, ID: h.ID, Ord: fw.ord,
		Batch: b, Last: fw.sent == fw.total}
	fw.ord++
	fw.recs.Add(int64(b.Len()))
	fw.bytes.Add(msg.wireBytes())
	return fw.c.send(fw.to, msg)
}

// write ships the rows of b, keeping none of them past the call.
func (fw *frameWriter) write(b *core.Batch) error {
	lo, n := 0, b.Len()
	if fw.sent+fw.gathered()+n > fw.total {
		return fmt.Errorf("cluster: transfer of %d rows given more", fw.total)
	}
	if fw.gathered() > 0 {
		// Top up the partly gathered frame first.
		lo = min(n, fw.step-fw.gather.Len())
		fw.gather.AppendBatch(b.Sub(0, lo))
		if fw.gather.Len() < fw.step {
			return nil
		}
		if err := fw.emit(fw.gather); err != nil {
			return err
		}
		fw.gather = core.NewBatchValues(fw.arity, 0, (*fw.buf)[:0])
	}
	for ; n-lo >= fw.step; lo += fw.step {
		if err := fw.emit(b.Sub(lo, lo+fw.step)); err != nil {
			return err
		}
	}
	if lo == n {
		return nil
	}
	if fw.sent+n-lo == fw.total {
		return fw.emit(b.Sub(lo, n))
	}
	if fw.gather == nil {
		fw.buf = frameVals(0)
		fw.gather = core.NewBatchValues(fw.arity, 0, (*fw.buf)[:0])
	}
	fw.gather.AppendBatch(b.Sub(lo, n))
	return nil
}

func (fw *frameWriter) gathered() int {
	if fw.gather == nil {
		return 0
	}
	return fw.gather.Len()
}

// finish sends what is left: the gathered rows, or the empty Last frame
// of an empty transfer.
func (fw *frameWriter) finish() error {
	switch {
	case fw.total == 0:
		return fw.emit(core.NewBatch(fw.arity))
	case fw.gathered() > 0:
		if err := fw.emit(fw.gather); err != nil {
			return err
		}
	}
	if fw.sent != fw.total {
		return fmt.Errorf("cluster: transfer of %d rows ended after %d", fw.total, fw.sent)
	}
	return nil
}

// close returns the gather buffer to the pool.
func (fw *frameWriter) close() {
	if fw.buf != nil {
		framePool.Put(fw.buf)
		fw.buf, fw.gather = nil, nil
	}
}

// recvFrames receives the driver's frame sequence for a scatter or
// broadcast, validating each frame with check and against dst's arity and
// appending the payloads to dst, until the Last frame. The frames are disjoint windows of a set
// and each arrives at most once (mailbox.put), so nothing is re-hashed.
func recvFrames(ctx *Ctx, dst *core.Relation, check func(*DataMsg) error) error {
	for {
		// Same abort check as recvSeq: don't keep merging frames into a
		// session that has already failed.
		if err := ctx.sess.Err(); err != nil {
			return err
		}
		msg, err := ctx.sess.recvNode(ctx.w.id, nil)
		if err != nil {
			return err
		}
		if err := check(msg); err != nil {
			return err
		}
		if err := checkArity(msg, dst.Arity()); err != nil {
			return err
		}
		dst.AppendDistinct(msg.Batch)
		last := msg.Last
		msg.Release()
		if last {
			return nil
		}
	}
}

// RunPhase runs f on every session member in parallel and waits for all
// of them; the first error aborts the phase. Exchange calls inside the
// phase are synchronized shuffles, isolated to this session. A phase does
// not start — and its barriers abort — once the session's context is
// cancelled or the session has recorded a member failure. A member error
// that classifies as a worker failure records one, so peers blocked at a
// barrier on that member's frames return instead of hanging.
func (s *Session) RunPhase(f func(ctx *Ctx) error) error {
	c := s.c
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("cluster: closed")
	}
	c.mu.Unlock()
	// The fault hook counts every phase a plan asks for, before the
	// refusals below: a scatter or broadcast starts sending before its
	// phase, so an injected failure can already have failed the session.
	if p := c.faults.Load(); p != nil {
		p.phaseStarting(c)
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if err := s.failErr(); err != nil {
		return err
	}
	seq := c.seq.Add(1)
	// A dead member fails the phase before anyone shuffles — with a typed
	// error naming the worker and phase — so live members are never
	// stranded at a barrier waiting for its batches.
	for _, id := range s.members {
		if c.workers[id].dead.Load() {
			return &FailureError{Class: WorkerFailure, Worker: id,
				Session: s.tag, Epoch: s.epoch, Phase: seq, Err: errWorkerDead}
		}
	}
	errs := make([]error, len(s.members))
	var wg sync.WaitGroup
	for rank, id := range s.members {
		w := c.workers[id]
		wg.Add(1)
		go func(rank int, w *Worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("cluster: worker %d panicked: %v", w.id, r)
				}
			}()
			errs[rank] = f(&Ctx{w: w, rank: rank, sess: s, phaseSeq: seq})
			if errs[rank] != nil && Classify(s.ctx, errs[rank]) == WorkerFailure {
				// A member that failed like a lost worker (say, it no
				// longer holds a broadcast) sends nothing more: fail the
				// session now, so peers waiting at a barrier for its
				// frames abort instead of hanging.
				s.detectFailure(s.wrapWorkerErr(w.id, seq, errs[rank]))
			}
		}(rank, w)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			errs[rank] = s.wrapWorkerErr(s.members[rank], seq, err)
		}
	}
	return errors.Join(errs...)
}

// wrapWorkerErr attaches failure context (worker, session, epoch, phase)
// to a member's phase error when it classifies as a worker failure.
// Cancellations and logic errors pass through untouched — their text and
// identity are part of existing contracts.
func (s *Session) wrapWorkerErr(id int, seq int64, err error) error {
	var fe *FailureError
	if errors.As(err, &fe) {
		return err
	}
	if Classify(s.ctx, err) != WorkerFailure {
		return err
	}
	return &FailureError{Class: WorkerFailure, Worker: id,
		Session: s.tag, Epoch: s.epoch, Phase: seq, Err: err}
}

// NewDataset registers an empty dataset handle with the given schema.
func (c *Cluster) NewDataset(cols ...string) *Dataset {
	return &Dataset{c: c, id: c.nextID.Add(1), cols: core.SortCols(cols)}
}

// Parallelize splits rel across the workers and ships each partition to its
// worker (scatter). With byCols non-nil the split hashes on those columns —
// the stable-column partitioning of §III-B; otherwise rows go round-robin.
func (s *Session) Parallelize(rel *core.Relation, byCols []string) (*Dataset, error) {
	c := s.c
	ds := c.NewDataset(rel.Cols()...)
	// Split across the session's members: after a recovery the surviving
	// workers absorb the lost partitions' rows (re-partitioning is simply
	// re-scattering the driver-held relation onto the new membership).
	parts := core.SplitRelation(rel, len(s.members), byCols)
	seq := c.seq.Add(1) << 20
	// Ship partitions concurrently with the receiving phase, encoding each
	// partition straight from its backing array in budget-sized frames.
	sendErr := make(chan error, 1)
	go func() {
		var firstErr error
		for i, p := range parts {
			if err := c.sendFrames(s.members[i], KindScatter, s.tag, seq, DriverNode, ds.id, p.Arity(), []*core.Batch{p.AsBatch()},
				&s.m.ScatterRecords, &s.m.ScatterBytes); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sendErr <- firstErr
	}()
	err := s.RunPhase(func(ctx *Ctx) error {
		part := core.NewRelation(rel.Cols()...)
		part.ReserveRows(rel.Len() / len(s.members))
		if err := recvFrames(ctx, part, func(msg *DataMsg) error {
			if msg.Kind != KindScatter || msg.Seq != seq || msg.ID != ds.id {
				return protocolViolation(msg, "unexpected frame during scatter")
			}
			return nil
		}); err != nil {
			return err
		}
		ctx.SetPartition(ds, part)
		return nil
	})
	if serr := <-sendErr; serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// Parallelize scatters rel under a private single-use session. It is the
// one session-less data-plane call left, kept for the benchmark rig's
// exchange probe (bench/trace.go), which scatters once outside any query.
func (c *Cluster) Parallelize(rel *core.Relation, byCols []string) (*Dataset, error) {
	s := c.NewSession(nil)
	defer s.Close()
	return s.Parallelize(rel, byCols)
}

// BroadcastRel replicates rel onto every worker (the broadcast join input
// pattern of P s_plw) and returns a handle.
func (s *Session) BroadcastRel(rel *core.Relation) (*Broadcast, error) {
	c := s.c
	b := &Broadcast{id: c.nextID.Add(1)}
	seq := c.seq.Add(1) << 20
	sendErr := make(chan error, 1)
	go func() {
		// Window the relation's backing array once; each window's varint
		// size is scanned once and shared by every worker's frame.
		whole := rel.AsBatch()
		step := core.BatchRowsFor(rel.Arity())
		total := rel.Len()
		var firstErr error
		for lo, ord := 0, uint32(0); ; ord++ {
			hi := lo + step
			if hi > total {
				hi = total
			}
			window := whole.Sub(lo, hi)
			encSize := uvarintSize(window.Values())
			for _, id := range s.members {
				msg := &DataMsg{Kind: KindBroadcast, Tag: s.tag, Seq: seq, From: DriverNode, ID: b.id, Ord: ord,
					Batch: window, encSize: encSize, Last: hi == total}
				s.m.BroadcastRecords.Add(int64(window.Len()))
				s.m.BroadcastBytes.Add(msg.wireBytes())
				if err := c.send(id, msg); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			// Keep sending even after an error: workers whose sends still
			// succeed must see their Last frame or they would block in
			// recvFrames instead of surfacing firstErr.
			if hi == total {
				break
			}
			lo = hi
		}
		sendErr <- firstErr
	}()
	err := s.RunPhase(func(ctx *Ctx) error {
		r := core.NewRelation(rel.Cols()...)
		r.ReserveRows(rel.Len())
		if err := recvFrames(ctx, r, func(msg *DataMsg) error {
			if msg.Kind != KindBroadcast || msg.Seq != seq || msg.ID != b.id {
				return protocolViolation(msg, "unexpected frame during broadcast")
			}
			return nil
		}); err != nil {
			return err
		}
		r.Seal(c.cfg.TaskMemBytes)
		ctx.w.mu.Lock()
		ctx.w.bcast[b.id] = r
		ctx.w.mu.Unlock()
		return nil
	})
	if serr := <-sendErr; serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Source is a set of rows a member ships to the driver in a Gather: a
// *core.Relation, or a fixpoint's *core.Accumulator read in place. Scan
// hands out its rows a stretch at a time; a stretch need not outlive the
// call.
type Source interface {
	Cols() []string
	Len() int
	Scan(f func(*core.Batch) error) error
}

// Gather runs f on every session member, like RunPhase, while the driver
// receives what each member ships with the ship function f is handed —
// exactly once, a Source of the given columns — and returns the frames as
// they arrived. It is the one receive loop of worker→driver traffic: a
// plan ships a fixpoint's X straight from its accumulator (in-memory
// segments leave as zero-copy windows, frozen runs a decoded chunk at a
// time), and Collect ships a dataset's partitions. The frames are the
// driver's one copy of the rows; nothing is hashed.
func (s *Session) Gather(cols []string, f func(ctx *Ctx, ship func(Source) error) error) (*Frames, error) {
	c := s.c
	seq := c.seq.Add(1) << 20
	arity := len(cols)
	out := &Frames{cols: cols}
	done := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop) // unblocks the receiver if the phase fails first
	go func() {
		// Members stream their rows as frame sequences; the gather is
		// complete when every member's Last frame has arrived.
		for lastSeen := 0; lastSeen < len(s.members); {
			msg, rerr := s.recvNode(DriverNode, stop)
			if rerr != nil {
				done <- rerr
				return
			}
			if msg.Kind != KindCollect || msg.Seq != seq {
				done <- protocolViolation(msg, "unexpected frame during collect")
				return
			}
			if err := checkArity(msg, arity); err != nil {
				done <- err
				return
			}
			if msg.Last {
				lastSeen++
			}
			out.keep(msg)
		}
		done <- nil
	}()
	phaseErr := s.RunPhase(func(ctx *Ctx) error {
		shipped := false
		err := f(ctx, func(src Source) error {
			if shipped {
				return errors.New("cluster: a member shipped twice in one gather")
			}
			shipped = true
			if !core.ColsEqual(src.Cols(), cols) {
				return fmt.Errorf("cluster: gathered schema %v does not match %v", src.Cols(), cols)
			}
			fw := c.newFrameWriter(DriverNode, &DataMsg{Kind: KindCollect, Tag: s.tag, Seq: seq, From: ctx.w.id},
				arity, src.Len(), &s.m.CollectRecords, &s.m.CollectBytes)
			defer fw.close()
			if err := src.Scan(fw.write); err != nil {
				return err
			}
			return fw.finish()
		})
		if err == nil && !shipped {
			err = errors.New("cluster: a member shipped nothing in a gather")
		}
		return err
	})
	if phaseErr != nil {
		return nil, phaseErr
	}
	if recvErr := <-done; recvErr != nil {
		return nil, recvErr
	}
	return out, nil
}

// Collect gathers all partitions of ds on the driver into one relation,
// sized once from the gathered frames and merged with set semantics.
func (s *Session) Collect(ds *Dataset) (*core.Relation, error) {
	fr, err := s.Gather(ds.cols, func(ctx *Ctx, ship func(Source) error) error {
		return ship(ctx.Partition(ds))
	})
	if err != nil {
		return nil, err
	}
	return fr.Relation(false), nil
}

// Frames is a transfer the driver gathered, held as its frames arrived:
// the rows in arrival order, counted. A consumer either scans the frames
// in place (Scan) or copies them into one relation (Relation), once.
type Frames struct {
	cols []string
	msgs []*DataMsg
	n    int
}

// keep holds a received frame; an empty one is released at once.
func (f *Frames) keep(msg *DataMsg) {
	if msg.rows() == 0 {
		msg.Release()
		return
	}
	f.msgs = append(f.msgs, msg)
	f.n += msg.rows()
}

// Cols returns the schema (sorted).
func (f *Frames) Cols() []string { return f.cols }

// Len returns the number of rows gathered.
func (f *Frames) Len() int { return f.n }

// Relation copies the frames into one relation sized once and releases
// them. disjoint says the frames hold a set, so they are appended with
// the dedup set deferred; otherwise every row is hashed once.
func (f *Frames) Relation(disjoint bool) *core.Relation {
	out := core.NewRelation(f.cols...)
	out.ReserveRows(f.n)
	for _, msg := range f.msgs {
		if disjoint {
			out.AppendDistinct(msg.Batch)
		} else {
			out.AddBatch(msg.Batch)
		}
		msg.Release()
	}
	f.msgs = nil
	return out
}

// Scan streams the frames' batches in arrival order, without copying
// them. A frame's buffer goes back to the transport's pool once the stream
// has moved past it, so a batch is valid until the following Next, as for
// every core.Iterator. The frames must hold a set (a disjoint transfer)
// for the stream to be one. Scan the frames once.
func (f *Frames) Scan() core.Iterator { return &framesIter{f: f} }

type framesIter struct {
	f *Frames
	i int
}

func (it *framesIter) Cols() []string { return it.f.cols }

func (it *framesIter) Next() *core.Batch {
	msgs := it.f.msgs
	if it.i > 0 && it.i <= len(msgs) {
		msgs[it.i-1].Release()
	}
	if it.i >= len(msgs) {
		it.i = len(msgs) + 1
		return nil
	}
	it.i++
	return msgs[it.i-1].Batch
}

// Distinct repartitions ds by full row hash so that duplicates meet on the
// same worker and are eliminated — Spark's distinct(), one full shuffle.
func (s *Session) Distinct(ds *Dataset) (*Dataset, error) {
	out := s.c.NewDataset(ds.cols...)
	err := s.RunPhase(func(ctx *Ctx) error {
		merged, err := ctx.Exchange(ctx.Partition(ds), nil)
		if err != nil {
			return err
		}
		ctx.SetPartition(out, merged)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Free drops a dataset's partitions on all workers. Unlike the exchange
// primitives it needs no barrier and ignores the session context: a
// cancelled query must still release its partitions on the way out.
func (s *Session) Free(ds *Dataset) error { return s.c.Free(ds) }

// Free drops a dataset's partitions on all workers. It pairs with
// Cluster.Parallelize, for the same caller.
func (c *Cluster) Free(ds *Dataset) error {
	for _, w := range c.workers {
		w.mu.Lock()
		delete(w.store, ds.id)
		w.mu.Unlock()
	}
	return nil
}

// FreeBroadcast drops a broadcast from all workers; like Free it works
// even after the session's context is cancelled.
func (s *Session) FreeBroadcast(b *Broadcast) error {
	s.c.freeBroadcast(b)
	return nil
}

// freeBroadcast drops a broadcast from all workers: the body of
// Session.FreeBroadcast, and how the resident registry frees a retired
// copy, which no session owns.
func (c *Cluster) freeBroadcast(b *Broadcast) {
	for _, w := range c.workers {
		w.mu.Lock()
		delete(w.bcast, b.id)
		w.mu.Unlock()
	}
}
