// Package tcache implements incremental temporal view maintenance: it
// decomposes a time-windowed aggregation query into canonical slice-aligned
// slabs (the same outward snapping the server's -time-snap applies, so
// snapped windows are automatically slab-aligned), caches the partial
// aggregate of each (query signature, slab) pair, and answers a window as a
// deterministic chronological fold of slab partials.
//
// The fold merges, never subtracts: sliding a window forward computes one
// new slab and reuses the rest, and an append to the underlying data set
// dirties only the slab(s) the new points' timestamps land in — every other
// partial stays byte-identical, because a slab partial is a pure function
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
// Entries are keyed by the PointSet's identity stamp, so an append —
// which produces a new stamp — cannot serve stale partials; Rekey migrates
// the clean slabs of the old stamp to the new one and drops the dirty ones.
// Every partial is a pure function of its key, so nothing else is tracked:
// a partial put under a stamp no request reads again ages out of the LRU.
package tcache

import (
	"sync"

	"repro/internal/core"
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

// SlabOf returns the start of the slab containing timestamp t at
// granularity gran (> 0): floor division toward negative infinity, the
// same rule qcache.SnapTime applies to window starts.
func SlabOf(t, gran int64) int64 {
	q := t / gran
	if t%gran != 0 && t < 0 {
		q--
	}
	return q * gran
}

// partialOverhead approximates fixed per-entry bookkeeping (map slot, list
// element, headers) charged on top of the stats payload.
const partialOverhead = 192

// cost is the bytes a cached partial is charged.
func cost(p *core.Result, sigLen int) int64 {
	return int64(len(p.Stats))*32 + int64(sigLen) + partialOverhead
}

// key identifies one slab partial: the data snapshot (stamp), the query
// shape (sig), and the slab start. The slab width is the owning Joiner's
// granularity, which participates in sig.
type key struct {
	stamp uint64
	sig   string
	slab  int64
}

// Stats is a point-in-time snapshot of cache counters; the server surfaces
// it under /api/stats.
type Stats struct {
	lru.Stats
	RekeyDrops uint64 `json:"rekeyDrops"`
}

// Cache is a byte-bounded LRU of slab partials; safe for concurrent use.
// It is deliberately a single-lock LRU: slab lookups are a few map probes
// per query, orders of magnitude cheaper than the joins they save, so
// sharding would buy nothing.
type Cache struct {
	mu         sync.Mutex
	lru        *lru.Cache[key, *core.Result]
	rekeyDrops uint64
}

// NewCache returns a cache bounded to capacityBytes (<= 0 uses
// DefaultCacheBytes).
func NewCache(capacityBytes int64) *Cache {
	if capacityBytes <= 0 {
		capacityBytes = DefaultCacheBytes
	}
	return &Cache{lru: lru.New[key, *core.Result](capacityBytes)}
}

// Get returns the cached partial for (stamp, sig, slab): the slab's Result.
// Callers must treat its Stats as immutable — partials are shared between
// cache entries and folds.
func (c *Cache) Get(stamp uint64, sig string, slab int64) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key{stamp: stamp, sig: sig, slab: slab})
}

// Put stores a partial, evicting least-recently-used entries to stay under
// the byte budget. A partial from a fold that read its stamp before an
// append is filed under that stamp: it is correct for the snapshot it
// names, no later request asks for it, and the LRU ages it out.
func (c *Cache) Put(stamp uint64, sig string, slab int64, p *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Add(key{stamp: stamp, sig: sig, slab: slab}, p, cost(p, len(sig)))
}

// Rekey migrates the entries of oldStamp to newStamp, dropping the slabs
// the dirty set names — the append-invalidation primitive. Partials for
// slabs no appended timestamp landed in stay byte-identical under the new
// snapshot (the appended tail is excluded by their time windows and the
// surviving points keep their index order), so they move; dirtied slabs
// are evicted and recompute lazily. Returns (migrated, dropped).
//
// Computes in flight during a Rekey put under the stamp they read when they
// started (see Put); Rekey moves only what is cached when it runs.
func (c *Cache) Rekey(oldStamp, newStamp uint64, dirty map[int64]bool) (migrated, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	type move struct {
		k key
		p *core.Result
	}
	var clean []move
	dropped = c.lru.DeleteFunc(func(k key, p *core.Result) bool {
		if k.stamp != oldStamp {
			return false
		}
		if !dirty[k.slab] {
			clean = append(clean, move{k, p})
		}
		return true
	}) - len(clean)
	for _, m := range clean {
		m.k.stamp = newStamp
		c.lru.Add(m.k, m.p, cost(m.p, len(m.k.sig)))
	}
	c.rekeyDrops += uint64(dropped)
	return len(clean), dropped
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Stats: c.lru.Stats(), RekeyDrops: c.rekeyDrops}
}
