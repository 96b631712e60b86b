package tcache

import (
	"testing"

	"repro/internal/core"
)

// TestCacheEviction: the LRU respects its byte budget, counts evictions,
// and refuses entries larger than the whole cache.
func TestCacheEviction(t *testing.T) {
	c := newCache(1000) // a few ~230-byte entries
	small := &core.Result{Stats: []core.RegionStat{{Count: 1}}}
	k := func(slab int64) key { return key{id: 1, sig: "sig", slab: slab} }
	for slab := int64(0); slab < 20; slab++ {
		c.put(k(slab), small)
	}
	st := c.stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, st.Capacity)
	}
	if st.Evictions == 0 || st.Entries >= 20 {
		t.Fatalf("no eviction happened: %+v", st)
	}
	// Most-recently-used entries survive; the oldest are gone.
	if _, ok := c.get(k(19)); !ok {
		t.Error("most recent entry was evicted")
	}
	if _, ok := c.get(k(0)); ok {
		t.Error("oldest entry survived past the budget")
	}

	huge := &core.Result{Stats: make([]core.RegionStat, 1<<10)}
	c.put(k(999), huge)
	if _, ok := c.get(k(999)); ok {
		t.Error("entry larger than the cache was admitted")
	}
}
