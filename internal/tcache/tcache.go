// Package tcache implements incremental temporal view maintenance: it
// decomposes a time-windowed aggregation query into canonical slice-aligned
// slabs (the same outward snapping the server's -time-snap applies, so
// snapped windows are automatically slab-aligned), caches the partial
// aggregate of each (query signature, slab) pair, and answers a window as a
// deterministic chronological fold of slab partials.
//
// The fold merges, never subtracts: sliding a window forward computes one
// new slab and reuses the rest, and an in-order append to the underlying
// data set changes only the slabs from the one holding its last timestamp
// on — every earlier partial stays byte-identical, because a slab partial
// is a pure function
// of (points inside the slab window, regions, aggregate, attribute,
// filters, canvas configuration) and the raster canvas transform derives
// from the region bounds alone.
//
// Determinism contract (DESIGN.md "Merge-not-subtract slab folding"): a
// warm fold is bit-identical to a cold fold of the same window — per-slab
// computes are deterministic and the merge order is fixed chronological
// with a compensated sum per region. Versus the legacy one-shot join over
// the whole window, COUNT and the requested MIN/MAX side are bit-identical
// (order-independent folds over the same membership) while SUM/AVG carry
// the same ε bound the geoblocks hierarchy documents: both sides are
// compensated but group terms differently. The unrequested min/max side of
// a raster RegionStat (max-of-per-pixel-mins and vice versa) does not
// decompose across slabs; it never reaches a response, and the fold keeps
// it deterministic but makes no cross-path promise about it.
//
// A slab that ends by the snapshot's horizon — its last stored timestamp —
// is sealed: the framework refuses a tail earlier than the horizon, so no
// later append can add a point to it, and its partial is keyed by the
// PointSet's lineage, which every in-order append inherits. Any other slab
// is keyed by the snapshot's identity stamp, which every append renews. An
// append therefore leaves each cached partial reachable exactly while it
// is still right, and touches no entry: a partial no request reads again
// ages out of the LRU.
package tcache

import (
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/lru"
)

// DefaultCacheBytes bounds the slab partial cache when no option overrides
// it. Partials are small (one RegionStat per region), so this holds
// thousands of slabs even over the census-tract layer.
const DefaultCacheBytes = 32 << 20

// DefaultMaxSlabs caps how many slabs one window may decompose into;
// windows wider than the cap fall through to the legacy one-shot path,
// bounding both fold fan-out and cache churn from pathological windows.
const DefaultMaxSlabs = 64

// partialOverhead approximates fixed per-entry bookkeeping (map slot, list
// element, headers) charged on top of the stats payload.
const partialOverhead = 192

// cost is the bytes a cached partial is charged.
func cost(p *core.Result, sigLen int) int64 {
	return int64(len(p.Stats))*32 + int64(sigLen) + partialOverhead
}

// key identifies one slab partial: the data it covers (id), the query
// shape (sig), and the slab start. The slab width is the owning Joiner's
// granularity, which participates in sig. A sealed slab's id is the point
// set's lineage, any other's its stamp; sealed keeps the two apart, since a
// lineage is its root's stamp and the root's open slabs must never answer
// a sealed lookup.
type key struct {
	id     uint64
	sealed bool
	sig    string
	slab   int64
}

// slabKey keys the partial of slab [slab, slab+gran) of ps.
func slabKey(ps *data.PointSet, gran int64, sig string, slab int64) key {
	if n := len(ps.T); n > 0 && slab+gran <= ps.T[n-1] {
		return key{id: ps.Lineage(), sealed: true, sig: sig, slab: slab}
	}
	return key{id: ps.Stamp(), sig: sig, slab: slab}
}

// cache is a byte-bounded LRU of slab partials; safe for concurrent use.
// It is deliberately a single-lock LRU: slab lookups are a few map probes
// per query, orders of magnitude cheaper than the joins they save, so
// sharding would buy nothing.
type cache struct {
	mu  sync.Mutex
	lru *lru.Cache[key, *core.Result]
}

// newCache returns a cache bounded to capacityBytes (<= 0 uses
// DefaultCacheBytes).
func newCache(capacityBytes int64) *cache {
	if capacityBytes <= 0 {
		capacityBytes = DefaultCacheBytes
	}
	return &cache{lru: lru.New[key, *core.Result](capacityBytes)}
}

// get returns the cached partial under k. Callers must treat its Stats as
// immutable — partials are shared between cache entries and folds.
func (c *cache) get(k key) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(k)
}

// put stores a partial, evicting least-recently-used entries to stay under
// the byte budget. A fold files its partials under the snapshot it read,
// even when an append has published a newer one since: each key names the
// data its partial is right for.
func (c *cache) put(k key, p *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Add(k, p, cost(p, len(k.sig)))
}

// stats snapshots the counters.
func (c *cache) stats() lru.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Stats()
}
