package lru

import (
	"math/rand"
	"slices"
	"testing"
)

// model is the naive reference the property test checks Cache against: a
// slice in recency order (index 0 = most recently used), every operation a
// linear scan.
type model struct {
	capacity int64
	cells    []cell
	stats    Stats
}

type cell struct {
	k, v int
	cost int64
}

func (m *model) index(k int) int {
	return slices.IndexFunc(m.cells, func(c cell) bool { return c.k == k })
}

func (m *model) bytes() int64 {
	var n int64
	for _, c := range m.cells {
		n += c.cost
	}
	return n
}

func (m *model) get(k int) (int, bool) {
	i := m.index(k)
	if i < 0 {
		m.stats.Misses++
		return 0, false
	}
	m.stats.Hits++
	c := m.cells[i]
	m.cells = slices.Insert(slices.Delete(m.cells, i, i+1), 0, c)
	return c.v, true
}

// add returns the keys it evicted, oldest first.
func (m *model) add(k, v int, cost int64) (evicted []int) {
	m.remove(k)
	if cost > m.capacity {
		return nil
	}
	for m.bytes()+cost > m.capacity {
		last := len(m.cells) - 1
		evicted = append(evicted, m.cells[last].k)
		m.cells = m.cells[:last]
		m.stats.Evictions++
	}
	m.cells = slices.Insert(m.cells, 0, cell{k, v, cost})
	return evicted
}

func (m *model) remove(k int) {
	if i := m.index(k); i >= 0 {
		m.cells = slices.Delete(m.cells, i, i+1)
	}
}

func (m *model) snapshot() Stats {
	s := m.stats
	s.Entries, s.Bytes, s.Capacity = len(m.cells), m.bytes(), m.capacity
	return s
}

// order lists the cache's keys from most to least recently used.
func order[K comparable, V any](c *Cache[K, V]) []K {
	var ks []K
	for n := c.root.next; n != &c.root; n = n.next {
		ks = append(ks, n.key)
	}
	return ks
}

// TestCacheMatchesModel drives seeded random operation sequences through
// the cache and the reference: every Get must answer alike, every Add must
// evict the same keys in the same order, and after every step the recency
// order, the counters and the byte bound must agree.
func TestCacheMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(rng.Intn(200)) // 0 included: the store-nothing cache
		c := New[int, int](capacity)
		m := &model{capacity: capacity}
		const keys = 24
		for step := 0; step < 2000; step++ {
			k := rng.Intn(keys)
			switch op := rng.Intn(100); {
			case op < 45:
				gv, gok := c.Get(k)
				wv, wok := m.get(k)
				if gv != wv || gok != wok {
					t.Fatalf("seed %d step %d: Get(%d) = (%d, %v), model (%d, %v)", seed, step, k, gv, gok, wv, wok)
				}
			case op < 98:
				cost := int64(1 + rng.Intn(60))
				if rng.Intn(20) == 0 {
					cost += capacity // sometimes larger than the whole budget
				}
				before := order(c)
				c.Add(k, step, cost)
				want := m.add(k, step, cost)
				after := order(c)
				// What the cache evicted: the keys that disappeared, other
				// than k itself, read oldest first.
				var got []int
				for i := len(before) - 1; i >= 0; i-- {
					if before[i] != k && !slices.Contains(after, before[i]) {
						got = append(got, before[i])
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Add(%d, cost %d) evicted %v, model %v", seed, step, k, cost, got, want)
				}
			default:
				c.Clear()
				m.cells = nil
			}
			var wantOrder []int
			for _, cl := range m.cells {
				wantOrder = append(wantOrder, cl.k)
			}
			if got := order(c); !slices.Equal(got, wantOrder) {
				t.Fatalf("seed %d step %d: recency order %v, model %v", seed, step, got, wantOrder)
			}
			st := c.Stats()
			if st != m.snapshot() {
				t.Fatalf("seed %d step %d: stats %+v, model %+v", seed, step, st, m.snapshot())
			}
			if st.Bytes > st.Capacity {
				t.Fatalf("seed %d step %d: %d bytes resident over a %d-byte budget", seed, step, st.Bytes, st.Capacity)
			}
		}
	}
}

// TestAddEdgeCases carries each owner's edge cases as inputs: qcache and
// tcache replace a key in place, every owner refuses an entry larger than
// its whole budget without evicting for it, a segment store opened with a
// zero budget keeps nothing resident, and an entry that exactly fills the
// remaining budget evicts nothing.
func TestAddEdgeCases(t *testing.T) {
	type add struct {
		k    string
		cost int64
	}
	cases := []struct {
		name      string
		capacity  int64
		adds      []add
		want      []string // resident keys, most recently used first
		bytes     int64
		evictions uint64
	}{
		{"replace existing key", 100, []add{{"a", 40}, {"b", 40}, {"a", 50}}, []string{"a", "b"}, 90, 0},
		{"replace shrinks", 100, []add{{"a", 90}, {"a", 10}, {"b", 90}}, []string{"b", "a"}, 100, 0},
		{"oversized evicts nothing", 100, []add{{"a", 40}, {"b", 40}, {"big", 101}}, []string{"b", "a"}, 80, 0},
		{"oversized replacement drops the old value", 100, []add{{"a", 40}, {"a", 101}}, nil, 0, 0},
		{"capacity 0 stores nothing", 0, []add{{"a", 1}, {"b", 1}}, nil, 0, 0},
		{"negative capacity is capacity 0", -5, []add{{"a", 1}}, nil, 0, 0},
		{"exact fit", 100, []add{{"a", 60}, {"b", 40}}, []string{"b", "a"}, 100, 0},
		{"one byte over evicts the oldest", 100, []add{{"a", 60}, {"b", 40}, {"c", 1}}, []string{"c", "b"}, 41, 1},
		{"whole budget evicts everything", 100, []add{{"a", 30}, {"b", 30}, {"c", 100}}, []string{"c"}, 100, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.capacity)
			for i, a := range tc.adds {
				c.Add(a.k, i, a.cost)
			}
			if got := order(c); !slices.Equal(got, tc.want) {
				t.Errorf("resident = %v, want %v", got, tc.want)
			}
			st := c.Stats()
			if st.Entries != len(tc.want) || st.Bytes != tc.bytes || st.Evictions != tc.evictions {
				t.Errorf("stats = %+v, want %d entries, %d bytes, %d evictions", st, len(tc.want), tc.bytes, tc.evictions)
			}
			// The last value written under a resident key is the one read.
			for _, k := range tc.want {
				last := -1
				for i, a := range tc.adds {
					if a.k == k {
						last = i
					}
				}
				if v, ok := c.Get(k); !ok || v != last {
					t.Errorf("Get(%q) = (%d, %v), want (%d, true)", k, v, ok, last)
				}
			}
		})
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, Evictions: 3, Entries: 4, Bytes: 5, Capacity: 6}
	a.Add(Stats{Hits: 10, Misses: 20, Evictions: 30, Entries: 40, Bytes: 50, Capacity: 60})
	if want := (Stats{Hits: 11, Misses: 22, Evictions: 33, Entries: 44, Bytes: 55, Capacity: 66}); a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
