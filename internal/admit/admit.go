// Package admit is the server's overload-protection layer: a weighted
// semaphore bounding concurrent query computes, fronted by a short,
// deadline-aware FIFO wait queue.
//
// The contract, per the ROADMAP's "bounded latency under heavy traffic"
// north star: an admitted request runs immediately; a request that cannot
// run immediately waits in line for at most min(maxWait, its own remaining
// deadline); a request that would overflow the queue, has already exhausted
// its deadline, or times out waiting is *shed* with ErrOverloaded — which
// the server maps to 503 + Retry-After — instead of piling onto the
// semaphore and dragging every in-flight query past its deadline.
//
// Grants are strictly FIFO: a heavy waiter at the head blocks lighter ones
// behind it, so no request starves. A nil *Controller admits everything
// (the -max-inflight 0 "disabled" setting).
package admit

import (
	"container/list"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded reports that admission shed the request: the server is at
// -max-inflight with a full (or too-slow) wait queue. HTTP maps it to 503
// Service Unavailable with a Retry-After hint.
var ErrOverloaded = errors.New("admit: server overloaded, try again shortly")

// DefaultQueue is the wait-queue length used when the caller passes 0.
const DefaultQueue = 64

// DefaultMaxWait is the queue wait bound used when the caller passes 0.
const DefaultMaxWait = 100 * time.Millisecond

// waiter is one queued acquisition.
type waiter struct {
	n     int64
	ready chan struct{} // closed on grant
}

// Controller is the admission semaphore. Construct with New; safe for
// concurrent use. A nil Controller admits everything at zero cost.
type Controller struct {
	capacity int64
	queueCap int
	maxWait  time.Duration

	mu      sync.Mutex
	cur     int64      // weight currently admitted
	waiters *list.List // of *waiter, FIFO

	queued   atomic.Int64 // gauge: waiters in line right now
	admitted atomic.Uint64
	shed     atomic.Uint64
	canceled atomic.Uint64 // left the queue because their ctx ended
}

// New returns a controller admitting at most capacity units of concurrent
// work, queueing at most queue excess requests (0 = DefaultQueue) for at
// most maxWait (0 = DefaultMaxWait) each. capacity <= 0 builds a controller
// that sheds every request — callers wanting "no admission control" should
// use a nil *Controller instead.
func New(capacity int64, queue int, maxWait time.Duration) *Controller {
	if queue == 0 {
		queue = DefaultQueue
	}
	if queue < 0 {
		queue = 0
	}
	if maxWait <= 0 {
		maxWait = DefaultMaxWait
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Controller{
		capacity: capacity,
		queueCap: queue,
		maxWait:  maxWait,
		waiters:  list.New(),
	}
}

// Acquire admits n units of work, waiting in the FIFO queue when the
// semaphore is full. It returns a release function exactly when err is nil;
// the caller must invoke it when the work finishes. Failure modes:
//
//   - ErrOverloaded: the queue was full, the caller's deadline was already
//     unmeetable, or the queue wait timed out — shed, retry later.
//   - ctx.Err(): the caller's context ended while queued; the queue slot and
//     semaphore count are provably restored (see TestCancelWhileQueued).
func (c *Controller) Acquire(ctx context.Context, n int64) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	if n < 1 {
		n = 1
	}
	if err := ctx.Err(); err != nil {
		c.canceled.Add(1)
		return nil, err
	}
	if c.capacity == 0 {
		c.shed.Add(1)
		return nil, ErrOverloaded
	}
	// A weight above capacity could never fit; clamp it so the request runs
	// with the semaphore to itself instead of being unserviceable forever
	// (think -max-inflight 1 and a weight-2 image render).
	if n > c.capacity {
		n = c.capacity
	}
	c.mu.Lock()
	// Fast path: room available and nobody queued ahead of us.
	if c.cur+n <= c.capacity && c.waiters.Len() == 0 {
		c.cur += n
		c.mu.Unlock()
		c.admitted.Add(1)
		return c.releaseFunc(n), nil
	}
	if c.waiters.Len() >= c.queueCap {
		c.mu.Unlock()
		c.shed.Add(1)
		return nil, ErrOverloaded
	}
	// Deadline-aware wait budget: never hold a request in line longer than
	// it could still be served. A request whose deadline is already
	// unmeetable is shed immediately rather than queued to die.
	budget := c.maxWait
	if d, ok := ctx.Deadline(); ok {
		remain := time.Until(d)
		if remain <= 0 {
			c.mu.Unlock()
			c.shed.Add(1)
			return nil, ErrOverloaded
		}
		if remain < budget {
			budget = remain
		}
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	el := c.waiters.PushBack(w)
	c.queued.Add(1)
	c.mu.Unlock()

	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case <-w.ready:
		c.queued.Add(-1)
		c.admitted.Add(1)
		return c.releaseFunc(n), nil
	case <-ctx.Done():
		if c.abandon(el, w) {
			c.queued.Add(-1)
			c.canceled.Add(1)
			return nil, ctx.Err()
		}
		// Granted in the race window: we already own the units — keep them,
		// the caller decides whether the work still runs.
		c.queued.Add(-1)
		c.admitted.Add(1)
		return c.releaseFunc(n), nil
	case <-timer.C:
		if c.abandon(el, w) {
			c.queued.Add(-1)
			c.shed.Add(1)
			return nil, ErrOverloaded
		}
		c.queued.Add(-1)
		c.admitted.Add(1)
		return c.releaseFunc(n), nil
	}
}

// abandon removes a waiter that is giving up. It reports true when the
// waiter was still queued (nothing was granted); false when a release
// granted it concurrently — the caller then owns the units.
func (c *Controller) abandon(el *list.Element, w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-w.ready:
		return false // grant won the race; units are ours
	default:
	}
	c.waiters.Remove(el)
	return true
}

// releaseFunc returns the idempotent release for n admitted units.
func (c *Controller) releaseFunc(n int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.cur -= n
			c.grantLocked()
			c.mu.Unlock()
		})
	}
}

// grantLocked admits queued waiters FIFO while the head fits. The mutex
// must be held.
func (c *Controller) grantLocked() {
	for c.waiters.Len() > 0 {
		w := c.waiters.Front().Value.(*waiter)
		if c.cur+w.n > c.capacity {
			return // strict FIFO: a heavy head is not jumped by light waiters
		}
		c.cur += w.n
		c.waiters.Remove(c.waiters.Front())
		close(w.ready)
	}
}

// RetryAfter is the hint the server sends with a shed response: the queue
// wait bound rounded up to whole seconds (at least 1).
func (c *Controller) RetryAfter() time.Duration {
	if c == nil {
		return time.Second
	}
	secs := math.Ceil(c.maxWait.Seconds())
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// Stats is the admission snapshot surfaced by /api/stats.
type Stats struct {
	Enabled     bool    `json:"enabled"`
	MaxInFlight int64   `json:"maxInFlight"`
	InFlight    int64   `json:"inFlight"` // admitted weight in flight
	Queued      int64   `json:"queued"`
	QueueCap    int     `json:"queueCap"`
	MaxWaitMs   float64 `json:"maxWaitMs"`
	Admitted    uint64  `json:"admitted"`
	Shed        uint64  `json:"shed"`
	Canceled    uint64  `json:"canceledInQueue"`
}

// Stats snapshots the controller (zero-valued for a nil controller).
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	cur := c.cur
	c.mu.Unlock()
	return Stats{
		Enabled:     true,
		MaxInFlight: c.capacity,
		InFlight:    cur,
		Queued:      c.queued.Load(),
		QueueCap:    c.queueCap,
		MaxWaitMs:   float64(c.maxWait) / float64(time.Millisecond),
		Admitted:    c.admitted.Load(),
		Shed:        c.shed.Load(),
		Canceled:    c.canceled.Load(),
	}
}
