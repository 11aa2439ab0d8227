package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestShipIntoRejectsWrongArityFrame: a shuffle frame whose rows have
// another arity than X's fails the Pgld step's exchange with a typed
// ProtocolError, and none of its values reach X.
func TestShipIntoRejectsWrongArityFrame(t *testing.T) {
	transports(t, 2, func(t *testing.T, c *Cluster) {
		seed := randomRel(rand.New(rand.NewSource(9)), 50, 20)
		var got error
		var before, after *core.Relation
		err := session(t, c).RunPhase(func(ctx *Ctx) error {
			if ctx.WorkerID() == 1 {
				// The peer's step ships one frame of ternary rows, with the
				// sequence number worker 0's exchange waits on.
				bad := core.BatchFromRows(3, [][]core.Value{{1, 2, 3}, {4, 5, 6}})
				return c.send(ctx.sess.members[0], &DataMsg{Kind: KindShuffle, Tag: ctx.sess.tag,
					Seq: ctx.phaseSeq<<20 | int64(ctx.calls+1), From: ctx.w.id, Batch: bad, Last: true})
			}
			x := core.NewAccumulator(nil, core.ColSrc, core.ColTrg)
			defer x.Close()
			x.Absorb(seed)
			before = x.Materialize()
			got = ctx.ShipInto(make([][]*core.Relation, 2), x)
			after = x.Materialize()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var pe *ProtocolError
		if !errors.As(got, &pe) || pe.Kind != KindShuffle || pe.From != 1 {
			t.Fatalf("wrong-arity frame: got %v, want a ProtocolError naming the shuffle from node 1", got)
		}
		if Classify(nil, got) != Fatal {
			t.Fatalf("a protocol violation classifies as %v, want fatal", Classify(nil, got))
		}
		if !after.Equal(before) {
			t.Fatalf("X changed from %d to %d rows on a rejected frame", before.Len(), after.Len())
		}
	})
}

// TestFrameDecodeAllocBound: frames arriving over one TCP connection are
// decoded into the connection's reused byte buffer and pooled value
// buffers the consumer releases, so N frames allocate far less than the N
// payloads they carry (a fresh byte buffer and a fresh value slice per
// frame allocate nearly twice that).
func TestFrameDecodeAllocBound(t *testing.T) {
	tr, err := NewTCPTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// One budget-sized frame of values whose varints take ten bytes each,
	// encoded once up front so the sender allocates nothing while measured.
	rows := core.BatchRowsFor(2)
	b := core.NewBatch(2)
	for i := 0; i < rows; i++ {
		b.AppendRow([]core.Value{core.Value(1<<63 | uint64(i)), core.Value(1<<63 | uint64(2*i))})
	}
	var frame bytes.Buffer
	if err := writeFrame(&frame, &DataMsg{Kind: KindShuffle, Tag: 1, Seq: 1, Batch: b}); err != nil {
		t.Fatal(err)
	}
	payload := frame.Len()
	conn, err := net.Dial("tcp", tr.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 400
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(frame.Bytes()); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < n; i++ {
		msg := <-tr.Inbox(0)
		if msg.Batch.Len() != rows || msg.Batch.Row(rows - 1)[1] != b.Row(rows - 1)[1] {
			t.Fatalf("frame %d decoded to %d rows, last %v; want %d rows, last %v",
				i, msg.Batch.Len(), msg.Batch.Row(msg.Batch.Len()-1), rows, b.Row(rows-1))
		}
		msg.Release()
	}
	runtime.ReadMemStats(&ms)
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	// Under the race detector sync.Pool drops a quarter of what it is
	// handed, so even then the bound holds with room: 0.2–0.25 B per
	// payload byte with -race, near 0 without, 1.9 with fresh buffers.
	if alloc := ms.TotalAlloc - start; alloc > uint64(n*payload/2) {
		t.Fatalf("%d frames of %d B allocated %d B (%.2f B per payload byte), want under half",
			n, payload, alloc, float64(alloc)/float64(n*payload))
	}
}
