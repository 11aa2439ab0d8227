package cluster

import "sync/atomic"

// Metrics counts the data movement of one session — the quantity the paper's
// Pgld/Pplw comparison is about. Shuffle traffic is worker↔worker data
// exchanged during repartitioning; broadcast traffic is driver→worker
// replication of constant relations; scatter and collect are the initial
// partitioning and final gathering. Local records are the rows an
// Exchange kept on their own worker (no network cost, like Spark's local
// bucket). A Pgld step's own rows are not among them: the
// step's drain puts them straight into the worker's X, so they never reach
// the shuffle (ShipInto ships pre-routed rows only).
type Metrics struct {
	ShufflePhases    atomic.Int64
	ShuffleRecords   atomic.Int64
	ShuffleBytes     atomic.Int64
	LocalRecords     atomic.Int64
	BroadcastRecords atomic.Int64
	BroadcastBytes   atomic.Int64
	ScatterRecords   atomic.Int64
	ScatterBytes     atomic.Int64
	CollectRecords   atomic.Int64
	CollectBytes     atomic.Int64
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	ShufflePhases    int64
	ShuffleRecords   int64
	ShuffleBytes     int64
	LocalRecords     int64
	BroadcastRecords int64
	BroadcastBytes   int64
	ScatterRecords   int64
	ScatterBytes     int64
	CollectRecords   int64
	CollectBytes     int64
}

// NetworkBytes returns all bytes that crossed the (real or simulated) wire.
func (s Snapshot) NetworkBytes() int64 {
	return s.ShuffleBytes + s.BroadcastBytes + s.ScatterBytes + s.CollectBytes
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		ShufflePhases:    m.ShufflePhases.Load(),
		ShuffleRecords:   m.ShuffleRecords.Load(),
		ShuffleBytes:     m.ShuffleBytes.Load(),
		LocalRecords:     m.LocalRecords.Load(),
		BroadcastRecords: m.BroadcastRecords.Load(),
		BroadcastBytes:   m.BroadcastBytes.Load(),
		ScatterRecords:   m.ScatterRecords.Load(),
		ScatterBytes:     m.ScatterBytes.Load(),
		CollectRecords:   m.CollectRecords.Load(),
		CollectBytes:     m.CollectBytes.Load(),
	}
}
