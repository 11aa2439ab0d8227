// Package cluster seeds locksend violations: its import path ends in
// "cluster", which is on the analyzer's scope.
package cluster

import "sync"

type notifier struct {
	mu sync.Mutex
	ch chan int
}

// publish sends on a channel while holding the mutex.
func (n *notifier) publish(v int) {
	n.mu.Lock()
	n.ch <- v // want `channel send while holding n\.mu`
	n.mu.Unlock()
}

// publishNonBlocking is the clean counterpart: select with default
// cannot block under the lock.
func (n *notifier) publishNonBlocking(v int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case n.ch <- v:
	default:
	}
}

// await blocks on a receive while holding the mutex.
func (n *notifier) await() int {
	n.mu.Lock()
	v := <-n.ch // want `blocking channel receive while holding n\.mu`
	n.mu.Unlock()
	return v
}

// gather blocks on a WaitGroup while holding the mutex.
func (n *notifier) gather(wg *sync.WaitGroup) {
	n.mu.Lock()
	wg.Wait() // want `blocking Wait while holding n\.mu`
	n.mu.Unlock()
}

// blockingSelect has no default clause, so it parks under the lock.
func (n *notifier) blockingSelect(done chan struct{}) {
	n.mu.Lock()
	select { // want `blocking select while holding n\.mu`
	case <-n.ch:
	case <-done:
	}
	n.mu.Unlock()
}

// release unlocks before sending: clean.
func (n *notifier) release(v int) {
	n.mu.Lock()
	n.mu.Unlock()
	n.ch <- v
}
