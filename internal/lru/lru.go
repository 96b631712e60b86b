// Package lru is the one byte-bounded least-recently-used cache under every
// cache in the repo: the query-result cache (qcache), the slab
// partial cache (tcache), the compiled region span cache (raster) and the
// segment column cache (segment) each hold a Cache and add only what is
// genuinely theirs — locking, flight coalescing, (block, column) keys.
//
// A Cache is not safe for concurrent use; its owner guards it with the lock
// it already needs for its own state.
package lru

// Stats is the one counter shape every cache reports. Hits and Misses count
// Get outcomes; Evictions counts entries pushed out by the byte budget (not
// replacements or clears).
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Capacity  int64  `json:"capacityBytes"`
}

// Add accumulates another snapshot, for owners that aggregate several
// caches (the server's attached segment stores).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	s.Capacity += o.Capacity
}

// node is one cache cell, linked into the recency ring.
type node[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *node[K, V]
}

// Cache is a byte-bounded LRU map from K to V. The caller supplies each
// entry's cost, which must be positive; the sum of resident costs never
// exceeds the capacity.
type Cache[K comparable, V any] struct {
	capacity int64
	bytes    int64
	items    map[K]*node[K, V]
	// root is the sentinel of the recency ring: root.next is the most
	// recently used entry, root.prev the eviction candidate.
	root node[K, V]

	hits, misses, evictions uint64
}

// New returns an empty cache bounded to capacity bytes. A capacity of zero
// (or less) stores nothing: every Get misses and Add is a no-op.
func New[K comparable, V any](capacity int64) *Cache[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	c := &Cache[K, V]{capacity: capacity, items: make(map[K]*node[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

func (c *Cache[K, V]) remove(n *node[K, V]) {
	c.unlink(n)
	delete(c.items, n.key)
	c.bytes -= n.cost
}

// Get returns the value stored under k and marks it most recently used,
// counting a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.items[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Add stores v under k at the given cost as the most recently used entry,
// replacing any entry already under k (a replacement is not an eviction).
// Least recently used entries are evicted until v fits. A value costing more
// than the whole capacity is not stored and evicts nothing — caching it
// would flush every other tenant for an entry that cannot stay.
func (c *Cache[K, V]) Add(k K, v V, cost int64) {
	if n, ok := c.items[k]; ok {
		c.remove(n)
	}
	if cost > c.capacity {
		return
	}
	for c.bytes+cost > c.capacity {
		c.remove(c.root.prev)
		c.evictions++
	}
	n := &node[K, V]{key: k, val: v, cost: cost}
	c.items[k] = n
	c.pushFront(n)
	c.bytes += cost
}

// Clear drops every entry; the counters keep counting.
func (c *Cache[K, V]) Clear() {
	clear(c.items)
	c.root.prev, c.root.next = &c.root, &c.root
	c.bytes = 0
}

// Stats snapshots the counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.items), Bytes: c.bytes, Capacity: c.capacity,
	}
}
