package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// This file is the broadcast registry. A relation bound by name in a
// query's environment — the triple relation G, a QueryTerm binding — is
// the same relation fixpoint after fixpoint and query after query, so its
// broadcast stays resident on the workers: it is keyed by (relation
// identity, Relation.Version, membership epoch) and sent again only when
// one of the three changes. Relations a query derives are broadcast and
// freed per fixpoint, as before. Either way a holder takes a lease
// (Session.AcquireBroadcast) and releases it when its fixpoint is done.

// ErrBroadcastLost is returned by Ctx.BroadcastValue for a handle the
// worker does not hold — its copy was dropped (a revived worker starts
// empty) or freed before the phase ran. It classifies as a worker
// failure, so the engine recovers the membership and retries the query
// instead of evaluating over an empty relation.
var ErrBroadcastLost = errors.New("cluster: broadcast not held by worker")

// errChangedInFlight fails the waiters of a copy whose relation changed
// while it was being sent; they send their own.
var errChangedInFlight = errors.New("cluster: relation changed during its broadcast")

// residents is the cluster's broadcast registry: at most one servable
// copy per bound name, plus the superseded copies whose leases are still
// held.
type residents struct {
	mu     sync.Mutex
	byName map[string]*resident // the servable copy of each bound name
	byID   map[int64]*resident  // every registered copy still on the workers
}

// resident is one registered broadcast of a bound relation.
type resident struct {
	name    string
	rel     *core.Relation
	version uint64
	epoch   int64
	b       *Broadcast    // set once the first holder's send succeeded
	ready   chan struct{} // closed when that send ends
	err     error         // its failure; set before ready closes
	leases  int
	retired bool // superseded or of an older epoch: freed at the last release
}

// AcquireBroadcast returns a handle to rel replicated on the session's
// workers and the release to call once the fixpoint that reads it is
// done. name is what rel is bound to in the caller's environment, or ""
// for a relation the query derived; the latter is broadcast now and freed
// at release.
//
// A bound relation is served from the resident copy of its name when that
// copy was sent for the same relation at the same version under this
// session's epoch; concurrent first holders wait for one send. Otherwise
// it is sent and becomes the name's resident copy, superseding the old
// one, which is freed from every worker when its last lease drops. The
// copy is registered only when rel's version did not move during the send
// and the session belongs to the current epoch; else it stays private to
// this caller, like a derived relation's.
func (s *Session) AcquireBroadcast(name string, rel *core.Relation) (*Broadcast, func(), error) {
	if name == "" {
		return s.privateBroadcast(rel)
	}
	reg := &s.c.residents
	for {
		e, owner := reg.lease(s, name, rel)
		switch {
		case e == nil:
			return s.privateBroadcast(rel)
		case owner:
			return s.fill(e)
		}
		select {
		case <-e.ready:
		case <-s.ctx.Done():
			reg.release(s.c, e)
			return nil, nil, context.Cause(s.ctx)
		case <-s.failCh:
			reg.release(s.c, e)
			return nil, nil, s.failErr()
		}
		if e.err == nil {
			return e.b, func() { reg.release(s.c, e) }, nil
		}
		// The first holder's send failed or went private: send again.
		reg.release(s.c, e)
	}
}

// privateBroadcast sends rel for one holder and frees it at release.
func (s *Session) privateBroadcast(rel *core.Relation) (*Broadcast, func(), error) {
	b, err := s.BroadcastRel(rel)
	if err != nil {
		return nil, nil, err
	}
	return b, func() { s.FreeBroadcast(b) }, nil
}

// lease takes a lease on the servable copy of name for rel, or registers
// a new entry this session must fill (owner). It returns nil when the
// session may neither be served nor register: its epoch is not current.
func (reg *residents) lease(s *Session, name string, rel *core.Relation) (e *resident, owner bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	v := rel.Version()
	cur := reg.byName[name]
	if cur != nil && cur.rel == rel && cur.version == v && cur.epoch == s.epoch {
		cur.leases++
		return cur, false
	}
	if s.epoch != s.c.epoch.Load() {
		return nil, false
	}
	if cur != nil {
		reg.retire(s.c, cur)
	}
	e = &resident{name: name, rel: rel, version: v, epoch: s.epoch, ready: make(chan struct{}), leases: 1}
	reg.byName[name] = e
	return e, true
}

// fill sends e's relation under s and publishes the outcome to the
// holders waiting on it.
func (s *Session) fill(e *resident) (*Broadcast, func(), error) {
	reg := &s.c.residents
	b, err := s.BroadcastRel(e.rel)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	defer close(e.ready)
	switch {
	case err != nil:
		reg.abandon(e, err)
		return nil, nil, err
	case e.rel.Version() != e.version:
		// Rows moved under the send: the copy may mix two states, so it
		// is this caller's alone and the waiters send their own.
		reg.abandon(e, errChangedInFlight)
		return b, func() { s.FreeBroadcast(b) }, nil
	}
	e.b = b
	reg.byID[b.id] = e
	return b, func() { reg.release(s.c, e) }, nil
}

// abandon unregisters an entry whose send did not produce a servable
// copy and drops the filling holder's lease. Called with reg.mu held.
func (reg *residents) abandon(e *resident, err error) {
	e.err = err
	e.leases--
	if reg.byName[e.name] == e {
		delete(reg.byName, e.name)
	}
}

// release drops one lease on e, freeing a retired copy at the last one.
func (reg *residents) release(c *Cluster, e *resident) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	e.leases--
	reg.freeIfIdle(c, e)
}

// retire makes e unservable; it is freed now if nobody holds it, else at
// its last release. Called with reg.mu held.
func (reg *residents) retire(c *Cluster, e *resident) {
	e.retired = true
	if reg.byName[e.name] == e {
		delete(reg.byName, e.name)
	}
	reg.freeIfIdle(c, e)
}

// freeIfIdle frees a retired, filled copy nobody holds. Called with
// reg.mu held; freeBroadcast takes only worker locks.
func (reg *residents) freeIfIdle(c *Cluster, e *resident) {
	if e.retired && e.leases == 0 && e.b != nil {
		delete(reg.byID, e.b.id)
		c.freeBroadcast(e.b)
	}
}

// retireAll retires every servable copy, or only those sent under an
// epoch older than before when before > 0.
func (reg *residents) retireAll(c *Cluster, before int64) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, e := range reg.byName {
		if before == 0 || e.epoch < before {
			reg.retire(c, e)
		}
	}
}

// RetireResidentBroadcasts makes every resident broadcast unservable and
// frees each from the workers once no fixpoint holds it. Call it when the
// relations bound by name are replaced wholesale (Engine.UseGraph), so
// the workers and the registry stop holding the old ones.
func (c *Cluster) RetireResidentBroadcasts() { c.residents.retireAll(c, 0) }

// BroadcastCopy describes one broadcast held in a worker's map.
type BroadcastCopy struct {
	Worker int   // physical node id
	ID     int64 // broadcast id
	// Name is the bound name of a resident copy, "" for a per-fixpoint
	// one; Epoch and Rel (the driver-side relation it replicates) are set
	// for resident copies only.
	Name    string
	Epoch   int64
	Rel     *core.Relation
	Retired bool // superseded, held only by leases still out
}

// BroadcastCopies lists every broadcast the workers hold, for tests and
// diagnostics: after all queries finish, each worker holds at most one
// resident copy per bound name, sent under the current epoch, and no
// per-fixpoint copy.
func (c *Cluster) BroadcastCopies() []BroadcastCopy {
	c.residents.mu.Lock()
	defer c.residents.mu.Unlock()
	var out []BroadcastCopy
	for _, w := range c.workers {
		w.mu.Lock()
		for id := range w.bcast {
			bc := BroadcastCopy{Worker: w.id, ID: id}
			if e := c.residents.byID[id]; e != nil {
				bc.Name, bc.Epoch, bc.Rel, bc.Retired = e.name, e.epoch, e.rel, e.retired
			}
			out = append(out, bc)
		}
		w.mu.Unlock()
	}
	return out
}

// BroadcastValue returns this worker's copy of a broadcast, or an error
// wrapping ErrBroadcastLost when the worker does not hold it.
func (ctx *Ctx) BroadcastValue(b *Broadcast) (*core.Relation, error) {
	ctx.w.mu.Lock()
	r, ok := ctx.w.bcast[b.id]
	ctx.w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: broadcast %d on worker %d", ErrBroadcastLost, b.id, ctx.w.id)
	}
	return r, nil
}
