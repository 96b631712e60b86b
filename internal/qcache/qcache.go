// Package qcache is the server's query-result cache: one LRU over
// serialized response bodies and selection entries (one join result several
// views render, see result.go), keyed by a canonicalized query signature
// (see key.go), with singleflight request coalescing so N concurrent
// identical queries compute once and fan the result out.
//
// The design follows the observation (GeoBlocks, arXiv:1908.07753) that
// interactive map exploration re-issues the same spatial aggregation
// shapes — time-slider drags, resolution switches, filter toggles — so a
// result cache over the aggregation layer is the single biggest lever for
// repeated-workload latency.
//
// Concurrency model:
//
//   - One mutex guards one lru.Cache under one byte budget: a lookup holds
//     it for a map probe, and every miss already takes flightMu.
//   - Invalidation lives in the key, not here: a key names every version
//     its result depends on (the catalog version, each data set's epoch),
//     so a change makes new requests ask for new keys and the old entries
//     age out of the LRU.
//   - Do coalesces concurrent identical requests: the first caller becomes
//     the leader and computes, later callers block on the leader's flight
//     and receive the same bytes. The leader publishes to the cache before
//     retiring the flight, so a caller can never slip between "flight gone"
//     and "cache filled" and recompute.
//
// Cached values are shared slices; callers must treat them as immutable.
package qcache

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/lru"
)

// Outcome says how Do satisfied a request; the server surfaces it in the
// X-Urbane-Cache response header.
type Outcome string

const (
	// Hit means the result was served from the cache.
	Hit Outcome = "hit"
	// Miss means this caller computed the result.
	Miss Outcome = "miss"
	// Coalesced means the caller waited on another caller's in-flight
	// compute for the same key and shares its result.
	Coalesced Outcome = "coalesced"
	// Bypass means caching is disabled (nil *Cache) and the result was
	// computed directly.
	Bypass Outcome = "bypass"
)

// entryOverhead approximates the fixed bookkeeping cost (map slot, list
// element, entry header) charged to every entry on top of its key and
// value bytes.
const entryOverhead = 160

// Stats is a point-in-time counter snapshot; see the /api/cachestats
// endpoint. Hits and Misses count request outcomes, not LRU lookups: a
// request that joins a flight is Coalesced, and a flight is one miss however
// many callers looked the key up before it started.
type Stats struct {
	lru.Stats
	Coalesced uint64 `json:"coalesced"`
}

// flightCall is one in-flight compute plus the callers attached to it. The
// compute runs in its own goroutine under a context detached from any one
// caller (context.WithoutCancel keeps the leader's values — notably its
// trace — while dropping its cancel), so a waiter that gives up detaches
// without killing the result the other waiters are blocked on. waiters and
// retired are guarded by the cache's flightMu; the last waiter to leave an
// unretired flight cancels the compute.
type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
	// hit records that the leader's double-check found the value cached,
	// so waiters report Hit rather than Coalesced-on-a-compute.
	hit bool
	// abandoned records that the compute died because every waiter left —
	// a late joiner that observes it retries instead of inheriting the
	// dead flight's cancellation error.
	abandoned bool

	// counted records that the flight's creator counts in Stats (DoContext,
	// not DoNested): only then is the flight a miss.
	counted bool

	waiters int
	retired bool
	cancel  context.CancelFunc
}

// Cache is an LRU result cache; safe for concurrent use. A nil *Cache is a
// valid disabled cache: Get always misses, Put is a no-op, and Do computes
// directly.
type Cache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, []byte]

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64

	flightMu sync.Mutex
	flights  map[string]*flightCall
}

// New returns a cache bounded to capacityBytes.
func New(capacityBytes int64) *Cache {
	return &Cache{
		lru:     lru.New[string, []byte](capacityBytes),
		flights: make(map[string]*flightCall),
	}
}

// lookup finds an entry without touching the hit/miss counters.
func (c *Cache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// Get returns the cached value for key, counting a hit or miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put inserts a value.
func (c *Cache) Put(key string, val []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Add(key, val, int64(len(key)+len(val))+entryOverhead)
}

// DoContext returns the cached value for key, or computes it exactly once
// across all concurrent callers. Errors are returned to the leader and every
// coalesced waiter but never cached. Coalescing semantics:
//
//   - The compute runs detached from any individual caller, under a context
//     that carries the leader's values but not its cancel. A caller whose
//     ctx ends while waiting detaches with ctx.Err(); the others keep
//     waiting and receive the result.
//   - The compute's context is canceled only when the last attached caller
//     has detached — nobody wants the answer anymore.
//   - A caller that joins a flight in the narrow window after its compute
//     was abandoned (all prior waiters gone) retries from the top instead
//     of inheriting the dead flight's cancellation error.
//
// Eventual quiescence: a detaching caller returns at once — it does not wait
// for the abandoned flight to unwind. The compute still holds whatever it
// acquired (canvases, pooled textures) until its next ctx poll, one point
// batch or region claim later, so "no render resources live" holds
// eventually after the last caller leaves, not at the instant its error is
// written. Leak checks poll for it with a bounded deadline.
func (c *Cache) DoContext(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	return c.do(ctx, key, compute, true)
}

// DoNested is DoContext for a value a request reads on its way to its own
// entry — the choropleth PNG's compute reading its selection's result. It
// shares the entry, any flight and the exactly-once compute with DoContext
// callers of the same key, but counts no hit, miss or coalesced outcome, so
// Stats keep counting one outcome per request. A flight DoNested starts
// counts no miss; a DoContext caller that joins it counts as coalesced.
func (c *Cache) DoNested(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	return c.do(ctx, key, compute, false)
}

// do is DoContext and DoNested; counted says whether the caller's outcome
// counts in Stats.
func (c *Cache) do(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error), counted bool) ([]byte, Outcome, error) {
	if c == nil {
		v, err := compute(ctx)
		return v, Bypass, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, Bypass, err
		}
		if v, ok := c.lookup(key); ok {
			if counted {
				c.hits.Add(1)
			}
			return v, Hit, nil
		}
		c.flightMu.Lock()
		if call, ok := c.flights[key]; ok {
			call.waiters++
			c.flightMu.Unlock()
			v, outcome, err, retry := c.wait(ctx, call, Coalesced, counted)
			if retry {
				continue
			}
			return v, outcome, err
		}
		call := &flightCall{done: make(chan struct{}), waiters: 1, counted: counted}
		cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		call.cancel = cancel
		c.flights[key] = call
		c.flightMu.Unlock()

		go c.runFlight(cctx, key, call, compute)

		// The leader waits like any other caller: if its request dies while
		// the compute is shared, it detaches and the survivors still get
		// the result.
		v, outcome, err, retry := c.wait(ctx, call, Miss, counted)
		if retry {
			continue
		}
		return v, outcome, err
	}
}

// runFlight executes one coalesced compute and retires the flight.
func (c *Cache) runFlight(cctx context.Context, key string, call *flightCall, compute func(ctx context.Context) ([]byte, error)) {
	defer call.cancel()
	finish := func(val []byte, err error, hit, abandoned bool) {
		call.val, call.err = val, err
		call.hit, call.abandoned = hit, abandoned
		c.flightMu.Lock()
		call.retired = true
		delete(c.flights, key)
		c.flightMu.Unlock()
		close(call.done)
	}

	// Leader double-check: a previous flight may have filled the cache
	// between the miss and taking leadership; recomputing would break the
	// exactly-once guarantee.
	if v, ok := c.lookup(key); ok {
		if call.counted {
			c.hits.Add(1)
		}
		finish(v, nil, true, false)
		return
	}

	// `qcache.compute` is a fault injection site: an injected error or
	// cancel takes the exact path a failed compute does — surfaced to every
	// waiter, never cached — which is what the chaos suite's
	// "faults never poison the cache" replay proves.
	var v []byte
	err := fault.Inject(cctx, "qcache.compute")
	if err == nil {
		v, err = compute(cctx)
	}
	if call.counted {
		c.misses.Add(1)
	}
	if err != nil {
		finish(nil, err, false, cctx.Err() != nil)
		return
	}
	// Publish before retiring the flight so late callers that missed the
	// cache either joined this flight or will hit the stored value.
	c.Put(key, v)
	finish(v, nil, false, false)
}

// wait blocks on the flight until it retires or ctx ends. own is the
// outcome to report on success (Miss for the flight's creator, Coalesced
// for joiners); counted says whether a Coalesced outcome counts in Stats.
// retry is true when the flight was abandoned but this caller's ctx is
// still live — the caller should start over.
func (c *Cache) wait(ctx context.Context, call *flightCall, own Outcome, counted bool) (v []byte, outcome Outcome, err error, retry bool) {
	select {
	case <-call.done:
		if call.abandoned && ctx.Err() == nil {
			return nil, own, nil, true
		}
		if call.hit {
			return call.val, Hit, call.err, false
		}
		if own == Coalesced && counted {
			c.coalesced.Add(1)
		}
		return call.val, own, call.err, false
	case <-ctx.Done():
		c.flightMu.Lock()
		call.waiters--
		if call.waiters == 0 && !call.retired {
			// Last caller gone: nobody wants the result, kill the compute.
			call.cancel()
		}
		c.flightMu.Unlock()
		return nil, own, ctx.Err(), false
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	s := Stats{Stats: c.lru.Stats(), Coalesced: c.coalesced.Load()}
	c.mu.Unlock()
	// The LRU counted lookups; the cache reports request outcomes.
	s.Hits, s.Misses = c.hits.Load(), c.misses.Load()
	return s
}
