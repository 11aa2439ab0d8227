package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"

	"repro/internal/core"
)

// MsgKind tags the purpose of a data-plane message; metrics are accounted
// per kind.
type MsgKind byte

const (
	// KindShuffle is worker→worker repartitioning traffic.
	KindShuffle MsgKind = iota + 1
	// KindBroadcast is driver→worker replication of a constant relation.
	KindBroadcast
	// KindScatter is driver→worker delivery of initial partitions.
	KindScatter
	// KindCollect is worker→driver result gathering.
	KindCollect
	// KindHeartbeat is liveness traffic: driver→worker probes and
	// worker→driver echoes, consumed at demux (never routed to a session).
	KindHeartbeat
)

// DataMsg is one data-plane message: a column-aligned batch of rows for a
// given exchange phase, carried as one flat value buffer instead of the
// seed's per-row slices (one allocation per batch on copy/decode, not one
// per row). Schemas travel in the control plane (the phase closure knows
// the dataset's columns); only raw values cross the wire. A logical
// transfer is a sequence of budget-sized frames (core.BatchRowsFor rows
// each); Last marks the final frame, which is how barrier receivers count
// completed senders, and Ord numbers the frames of one sender's transfer
// for Seq from 0, which is how a receiver absorbs each of them at most
// once (see mailbox.put).
type DataMsg struct {
	Kind  MsgKind
	Last  bool   // final frame of this sender's transfer for Seq
	Ord   uint32 // ordinal of this frame within the sender's transfer for Seq
	Tag   int64  // session (execution epoch) this frame belongs to
	Seq   int64  // exchange phase this batch belongs to
	From  int    // sending node (DriverNode for the driver)
	ID    int64  // dataset / broadcast identifier
	Batch *core.Batch

	// vals is the pooled buffer behind a received frame's Batch (nil for
	// a frame built by a sender); Release hands it back.
	vals *[]core.Value

	// encSize caches the varint-encoded value size so the metrics pass and
	// the TCP frame writer scan the batch once, not twice.
	encSize int
}

// Release hands a received frame's value buffer back to the transport's
// pool. A consumer calls it once it has copied the frame's rows out, or
// read them in place (Frames); the
// frame's Batch is cleared, so a late read fails loudly instead of seeing
// another frame's values. A frame without values, or one a transport did
// not deliver, has no buffer: releasing it only clears its Batch.
func (m *DataMsg) Release() {
	if m.vals != nil {
		framePool.Put(m.vals)
		m.vals = nil
	}
	m.Batch = nil
}

// framePool recycles frame value buffers (*[]core.Value). A frame holds at
// most core.BatchRowsFor(arity) rows, so for every arity up to 128 its
// values fit in core.BatchBudgetValues and one size class serves every
// frame; frameVals sizes new buffers to that class.
var framePool sync.Pool

// frameVals returns a pooled buffer of n values.
func frameVals(n int) *[]core.Value {
	if p, _ := framePool.Get().(*[]core.Value); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	v := make([]core.Value, n, max(n, core.BatchBudgetValues))
	return &v
}

// wirePool recycles the byte buffers writeFrame encodes into (*[]byte).
var wirePool sync.Pool

// rows returns the batch row count (nil batch = 0 rows).
func (m *DataMsg) rows() int {
	if m.Batch == nil {
		return 0
	}
	return m.Batch.Len()
}

// wireBytes is the size of the message in the TCP transport's encoding —
// a fixed header plus varint-packed values — and the figure the metrics
// report for both transports, so NetworkBytes is comparable across data
// planes. Interned values are small dense integers, so varint framing
// typically packs a value into 1–2 bytes instead of 8.
func (m *DataMsg) wireBytes() int64 {
	return int64(msgHeaderSize + m.valueBytes())
}

// valueBytes returns (computing once) the varint-encoded size of the
// batch's values.
func (m *DataMsg) valueBytes() int {
	if m.encSize == 0 && m.Batch != nil {
		m.encSize = uvarintSize(m.Batch.Values())
	}
	return m.encSize
}

// uvarintSize sums the LEB128-encoded sizes of vals.
func uvarintSize(vals []core.Value) int {
	n := 0
	for _, v := range vals {
		n += (bits.Len64(uint64(v)|1) + 6) / 7
	}
	return n
}

// Transport moves data-plane messages between nodes. Node ids 0..n-1 are
// workers; DriverNode is the driver. Implementations must be safe for
// concurrent Send from multiple nodes. A received batch is the receiver's
// own copy, in a buffer from the transport's frame pool: the consumer
// copies its rows out and then calls DataMsg.Release, after which the
// buffer serves a later frame. Only the driver's Gather keeps frames as
// received (Frames); whoever reads them releases each once done with it.
type Transport interface {
	// Send delivers msg to node `to`. It blocks until the message is
	// handed to the target's inbox (chan) or written to the socket (TCP).
	Send(to int, msg *DataMsg) error
	// Inbox returns the reception channel of a node.
	Inbox(node int) <-chan *DataMsg
	// Done is closed when the transport shuts down; receivers select on it
	// so a torn-down transport cannot strand a barrier.
	Done() <-chan struct{}
	// Close tears the transport down; pending Sends fail.
	Close() error
}

// DriverNode is the node id of the driver in the transport.
const DriverNode = -1

const msgHeaderSize = 1 + 1 + 4 + 8 + 8 + 4 + 8 + 4 + 4 // kind, flags, ord, tag, seq, from, id, arity, nrows

// frame flag bits.
const flagLast = 1 << 0

// --- in-process channel transport -------------------------------------------

// ChanTransport delivers messages over Go channels. Batches are copied on
// send so that workers cannot share memory through messages — the same
// isolation a real network gives — but the copy is one pooled flat buffer
// per batch, not one allocation per row.
type ChanTransport struct {
	inboxes map[int]chan *DataMsg
	closed  chan struct{}
	once    sync.Once
}

// NewChanTransport builds a channel transport for n workers plus a driver.
func NewChanTransport(n int) *ChanTransport {
	t := &ChanTransport{
		inboxes: make(map[int]chan *DataMsg, n+1),
		closed:  make(chan struct{}),
	}
	cap := 4*n + 8
	for i := 0; i < n; i++ {
		t.inboxes[i] = make(chan *DataMsg, cap)
	}
	t.inboxes[DriverNode] = make(chan *DataMsg, cap)
	return t
}

// Send implements Transport.
func (t *ChanTransport) Send(to int, msg *DataMsg) error {
	inbox, ok := t.inboxes[to]
	if !ok {
		return fmt.Errorf("cluster: no such node %d", to)
	}
	cp := &DataMsg{Kind: msg.Kind, Last: msg.Last, Ord: msg.Ord, Tag: msg.Tag, Seq: msg.Seq, From: msg.From, ID: msg.ID}
	if msg.Batch != nil {
		var vals []core.Value
		if n := len(msg.Batch.Values()); n > 0 {
			cp.vals = frameVals(n)
			vals = *cp.vals
			copy(vals, msg.Batch.Values())
		}
		cp.Batch = core.NewBatchValues(msg.Batch.Arity(), msg.Batch.Len(), vals)
	}
	select {
	case inbox <- cp:
		return nil
	case <-t.closed:
		return errors.New("cluster: transport closed")
	}
}

// Inbox implements Transport.
func (t *ChanTransport) Inbox(node int) <-chan *DataMsg { return t.inboxes[node] }

// Done implements Transport.
func (t *ChanTransport) Done() <-chan struct{} { return t.closed }

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// --- TCP transport -----------------------------------------------------------

// TCPTransport moves messages over real loopback TCP sockets with
// length-prefixed binary batch frames — the data plane of a genuinely
// distributed deployment, usable for measuring actual wire bytes. Values
// are varint-packed, so frames are sized by information content rather
// than 8 bytes per value.
type TCPTransport struct {
	n         int
	listeners map[int]net.Listener
	addrs     map[int]string
	inboxes   map[int]chan *DataMsg

	mu    sync.Mutex
	conns map[int]net.Conn // keyed by target node
	wg    sync.WaitGroup
	once  sync.Once
	down  chan struct{}
}

// NewTCPTransport starts one loopback listener per node (n workers plus the
// driver).
func NewTCPTransport(n int) (*TCPTransport, error) {
	t := &TCPTransport{
		n:         n,
		listeners: make(map[int]net.Listener, n+1),
		addrs:     make(map[int]string, n+1),
		inboxes:   make(map[int]chan *DataMsg, n+1),
		conns:     make(map[int]net.Conn),
		down:      make(chan struct{}),
	}
	nodes := make([]int, 0, n+1)
	for i := 0; i < n; i++ {
		nodes = append(nodes, i)
	}
	nodes = append(nodes, DriverNode)
	for _, node := range nodes {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("cluster: listen for node %d: %w", node, err)
		}
		t.listeners[node] = l
		t.addrs[node] = l.Addr().String()
		t.inboxes[node] = make(chan *DataMsg, 4*n+8)
		t.wg.Add(1)
		go t.acceptLoop(node, l)
	}
	return t, nil
}

func (t *TCPTransport) acceptLoop(node int, l net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Close can race the Accept above: don't spawn read loops for
		// connections that landed after shutdown began.
		select {
		case <-t.down:
			conn.Close()
			return
		default:
		}
		t.wg.Add(1)
		go t.readLoop(node, conn)
	}
}

func (t *TCPTransport) readLoop(node int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	var buf []byte // the connection's frame bytes, reused frame after frame
	for {
		msg, err := readFrame(conn, &buf)
		if err != nil {
			return
		}
		select {
		case t.inboxes[node] <- msg:
		case <-t.down:
			return
		}
	}
}

// Send implements Transport: it lazily dials a pooled connection to the
// target node and writes one frame.
func (t *TCPTransport) Send(to int, msg *DataMsg) error {
	select {
	case <-t.down:
		return errors.New("cluster: transport closed")
	default:
	}
	addr, ok := t.addrs[to]
	if !ok {
		return fmt.Errorf("cluster: no such node %d", to)
	}
	// One pooled conn per (sender goroutine is serialized by phase, but
	// different senders target the same node concurrently) — key the pool
	// by (from,to) to avoid interleaved frames.
	key := (msg.From+1)*1000000 + to + 1
	t.mu.Lock()
	conn, ok := t.conns[key]
	if !ok {
		var err error
		conn, err = net.Dial("tcp", addr)
		if err != nil {
			t.mu.Unlock()
			return fmt.Errorf("cluster: dial node %d: %w", to, err)
		}
		t.conns[key] = conn
	}
	t.mu.Unlock()
	return writeFrame(conn, msg)
}

// Inbox implements Transport.
func (t *TCPTransport) Inbox(node int) <-chan *DataMsg { return t.inboxes[node] }

// Done implements Transport.
func (t *TCPTransport) Done() <-chan struct{} { return t.down }

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.down)
		for _, l := range t.listeners {
			l.Close()
		}
		t.mu.Lock()
		for _, c := range t.conns {
			c.Close()
		}
		t.mu.Unlock()
	})
	return nil
}

// writeFrame encodes msg as a length-prefixed binary batch frame: the
// fixed header followed by the batch's values varint-packed in row-major
// order, encoded into a pooled buffer. Frames from a given (from,to) pair
// are serialized by the connection pool.
func writeFrame(w io.Writer, msg *DataMsg) error {
	arity, nRows := 0, 0
	var vals []core.Value
	if msg.Batch != nil {
		arity, nRows, vals = msg.Batch.Arity(), msg.Batch.Len(), msg.Batch.Values()
	}
	payload := msgHeaderSize + msg.valueBytes()
	bp, _ := wirePool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer wirePool.Put(bp)
	if cap(*bp) < 4+payload {
		*bp = make([]byte, 4+payload)
	}
	buf := (*bp)[:4+payload]
	binary.LittleEndian.PutUint32(buf[0:], uint32(payload))
	buf[4] = byte(msg.Kind)
	buf[5] = 0 // the pooled buffer may hold an earlier frame's flags
	if msg.Last {
		buf[5] = flagLast
	}
	binary.LittleEndian.PutUint32(buf[6:], msg.Ord)
	binary.LittleEndian.PutUint64(buf[10:], uint64(msg.Tag))
	binary.LittleEndian.PutUint64(buf[18:], uint64(msg.Seq))
	binary.LittleEndian.PutUint32(buf[26:], uint32(int32(msg.From)))
	binary.LittleEndian.PutUint64(buf[30:], uint64(msg.ID))
	binary.LittleEndian.PutUint32(buf[38:], uint32(arity))
	binary.LittleEndian.PutUint32(buf[42:], uint32(nRows))
	off := 4 + msgHeaderSize
	for _, v := range vals {
		off += binary.PutUvarint(buf[off:], uint64(v))
	}
	if off != len(buf) {
		return fmt.Errorf("cluster: frame size mismatch (%d vs %d)", off, len(buf))
	}
	_, err := w.Write(buf)
	return err
}

// readFrame decodes one frame, reading its bytes into *buf (grown as
// needed and kept for the next frame) and its values into a pooled buffer
// the consumer releases.
func readFrame(r io.Reader, buf *[]byte) (*DataMsg, error) {
	if cap(*buf) < 4 {
		*buf = make([]byte, 4+msgHeaderSize)
	}
	if _, err := io.ReadFull(r, (*buf)[:4]); err != nil {
		return nil, err
	}
	payload := binary.LittleEndian.Uint32((*buf)[:4])
	if payload < msgHeaderSize || payload > 1<<30 {
		return nil, fmt.Errorf("cluster: bad frame length %d", payload)
	}
	if cap(*buf) < int(payload) {
		*buf = make([]byte, payload)
	}
	b := (*buf)[:payload]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	msg := &DataMsg{
		Kind: MsgKind(b[0]),
		Last: b[1]&flagLast != 0,
		Ord:  binary.LittleEndian.Uint32(b[2:]),
		Tag:  int64(binary.LittleEndian.Uint64(b[6:])),
		Seq:  int64(binary.LittleEndian.Uint64(b[14:])),
		From: int(int32(binary.LittleEndian.Uint32(b[22:]))),
		ID:   int64(binary.LittleEndian.Uint64(b[26:])),
	}
	arity := int(binary.LittleEndian.Uint32(b[34:]))
	nRows := int(binary.LittleEndian.Uint32(b[38:]))
	// Every value costs at least one varint byte, so the header's claimed
	// value count is bounded by the payload actually received — reject
	// inconsistent frames before allocating for them.
	if arity < 0 || nRows < 0 || (arity > 0 && nRows > (1<<30)/arity) ||
		arity*nRows > int(payload)-msgHeaderSize {
		return nil, fmt.Errorf("cluster: inconsistent frame (arity=%d rows=%d payload=%d)", arity, nRows, payload)
	}
	var vals []core.Value
	if n := arity * nRows; n > 0 {
		msg.vals = frameVals(n)
		vals = *msg.vals
	}
	off := msgHeaderSize
	for i := range vals {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, fmt.Errorf("cluster: truncated frame (value %d of %d)", i, len(vals))
		}
		vals[i] = core.Value(v)
		off += n
	}
	if off != int(payload) {
		return nil, fmt.Errorf("cluster: trailing bytes in frame (%d vs %d)", off, payload)
	}
	msg.Batch = core.NewBatchValues(arity, nRows, vals)
	return msg, nil
}
