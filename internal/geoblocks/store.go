package geoblocks

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/lru"
)

// Store caches one Index per data set name, for the newest snapshot it has
// seen: an entry carries the PointSet.Stamp() it was built from, and a stamp
// names one immutable snapshot, so an entry never goes stale. Newer
// snapshots carry larger stamps (see PointSet.Stamp), so a Get for a newer
// stamp replaces the entry and a Get for an older one — a query that took
// its snapshot before an append — builds for itself and caches nothing.
// Concurrent first queries for the same snapshot coalesce on a single
// build; a build aborted by its requester's context is not cached, and
// surviving waiters retry.
type Store struct {
	maxLevel int

	mu      sync.Mutex
	entries map[string]*storeEntry

	hits           atomic.Uint64
	misses         atomic.Uint64
	patches        atomic.Uint64
	patchFallbacks atomic.Uint64
}

type storeEntry struct {
	stamp uint64
	done  chan struct{}
	idx   *Index
	err   error
}

// NewStore returns an empty store building indexes at the given finest
// level (<=0 uses DefaultMaxLevel).
func NewStore(maxLevel int) *Store {
	if maxLevel <= 0 {
		maxLevel = DefaultMaxLevel
	}
	if maxLevel > MaxMaxLevel {
		maxLevel = MaxMaxLevel
	}
	return &Store{maxLevel: maxLevel, entries: make(map[string]*storeEntry)}
}

// MaxLevel returns the finest level of built hierarchies.
func (s *Store) MaxLevel() int { return s.maxLevel }

// Get returns the hierarchy for ps, building it under ctx on first use.
// Concurrent callers for the same snapshot share one build; if the
// builder's context dies mid-build the failure is not cached and a
// surviving waiter takes over the build. A build for a snapshot older than
// the cached one is returned to its caller but not cached.
func (s *Store) Get(ctx context.Context, ps *data.PointSet) (*Index, error) {
	stamp := ps.Stamp()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		e, ok := s.entries[ps.Name]
		if !ok || e.stamp != stamp {
			older := ok && e.stamp > stamp
			e = &storeEntry{stamp: stamp, done: make(chan struct{})}
			if !older {
				s.entries[ps.Name] = e
			}
			s.mu.Unlock()
			s.misses.Add(1)
			e.idx, e.err = BuildContext(ctx, ps, s.maxLevel)
			close(e.done)
			if e.err != nil {
				// Never cache a failed build: remove the entry unless a newer
				// snapshot already replaced it (or it was never published).
				s.mu.Lock()
				if s.entries[ps.Name] == e {
					delete(s.entries, ps.Name)
				}
				s.mu.Unlock()
				return nil, e.err
			}
			return e.idx, nil
		}
		s.mu.Unlock()
		select {
		case <-e.done:
			if e.err == nil {
				s.hits.Add(1)
				return e.idx, nil
			}
			// The builder's context died; loop and (re)build under ours.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Patch moves the cached hierarchy for oldPS to newPS — which must be oldPS
// plus appended points — by PatchAppend instead of a rebuild, and reports
// whether a patched index is now cached for newPS. When no completed
// hierarchy for oldPS is cached (never built, build still in flight, or
// replaced), or PatchAppend refuses (out-of-bounds points, outgrown tail),
// the entry stays as it is and the next Get for newPS replaces it with a
// fresh build.
func (s *Store) Patch(ctx context.Context, oldPS, newPS *data.PointSet) bool {
	s.mu.Lock()
	e, ok := s.entries[oldPS.Name]
	s.mu.Unlock()
	if !ok || e.stamp != oldPS.Stamp() {
		return false
	}
	select {
	case <-e.done:
	default:
		return false // build still in flight for the obsolete snapshot
	}
	if e.err != nil {
		return false
	}
	idx, err := e.idx.PatchAppend(ctx, newPS)
	if err != nil {
		s.patchFallbacks.Add(1)
		return false
	}
	ne := &storeEntry{stamp: newPS.Stamp(), done: make(chan struct{}), idx: idx}
	close(ne.done)
	s.mu.Lock()
	s.entries[newPS.Name] = ne
	s.mu.Unlock()
	s.patches.Add(1)
	return true
}

// Stats is a point-in-time snapshot of store behavior: the shared cache
// counters (the store holds one entry per data set name and has no byte
// budget, so Capacity and Evictions stay zero)
// plus the append-patch outcomes. Declined counts the requests the engine's
// cost rule handed to the raster join; Engine.Stats fills it in.
type Stats struct {
	lru.Stats
	Patches        uint64 `json:"patches"`
	PatchFallbacks uint64 `json:"patchFallbacks"`
	MaxLevel       int    `json:"maxLevel"`
	Declined       uint64 `json:"declined"`
}

// Stats returns a snapshot. Bytes only counts completed builds.
func (s *Store) Stats() Stats {
	st := Stats{
		Stats:          lru.Stats{Hits: s.hits.Load(), Misses: s.misses.Load()},
		Patches:        s.patches.Load(),
		PatchFallbacks: s.patchFallbacks.Load(),
		MaxLevel:       s.maxLevel,
	}
	s.mu.Lock()
	st.Entries = len(s.entries)
	for _, e := range s.entries {
		select {
		case <-e.done:
			if e.err == nil {
				st.Bytes += int64(e.idx.Bytes())
			}
		default:
		}
	}
	s.mu.Unlock()
	return st
}
