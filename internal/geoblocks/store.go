package geoblocks

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/lru"
)

// retiredStamps bounds how many retired snapshot stamps a Store remembers.
// A Get for a retired stamp can only come from a query already in flight
// when its snapshot was appended to, and no query outlives this many
// appends.
const retiredStamps = 1024

// Store caches one Index per point set, keyed by PointSet.Stamp(). A stamp
// names one immutable snapshot, so an entry never goes stale; an append
// retires the old snapshot's entry through Patch. Concurrent first queries
// for the same point set coalesce on a single build; a build aborted by its
// requester's context is not cached, and surviving waiters retry.
type Store struct {
	maxLevel int

	mu      sync.Mutex
	entries map[uint64]*storeEntry
	// retired remembers the stamps Patch has retired, so a Get that raced
	// the append does not cache a hierarchy nobody will ask for again.
	retired *lru.Cache[uint64, struct{}]

	hits           atomic.Uint64
	misses         atomic.Uint64
	patches        atomic.Uint64
	patchFallbacks atomic.Uint64
}

type storeEntry struct {
	done chan struct{}
	idx  *Index
	err  error
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
	return &Store{
		maxLevel: maxLevel,
		entries:  make(map[uint64]*storeEntry),
		retired:  lru.New[uint64, struct{}](retiredStamps),
	}
}

// MaxLevel returns the finest level of built hierarchies.
func (s *Store) MaxLevel() int { return s.maxLevel }

// Get returns the hierarchy for ps, building it under ctx on first use.
// Concurrent callers for the same point set share one build; if the
// builder's context dies mid-build the failure is not cached and a
// surviving waiter takes over the build. A build for a snapshot Patch has
// already retired is returned to its caller but not cached.
func (s *Store) Get(ctx context.Context, ps *data.PointSet) (*Index, error) {
	key := ps.Stamp()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		e, ok := s.entries[key]
		if !ok {
			e = &storeEntry{done: make(chan struct{})}
			if _, dead := s.retired.Get(key); !dead {
				s.entries[key] = e
			}
			s.mu.Unlock()
			s.misses.Add(1)
			e.idx, e.err = BuildContext(ctx, ps, s.maxLevel)
			close(e.done)
			if e.err != nil {
				// Never cache a failed build: remove the entry unless Patch
				// already retired it (or it was never published).
				s.mu.Lock()
				if s.entries[key] == e {
					delete(s.entries, key)
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

// Patch migrates the cached hierarchy for oldPS to newPS — which must be
// oldPS plus appended points — by PatchAppend instead of a rebuild, and
// reports whether a patched index is now cached under newPS's stamp. The
// old entry is always retired: when no completed hierarchy exists (never
// built, build in flight for the obsolete snapshot, or PatchAppend refuses
// — out-of-bounds points, outgrown tail) the entry is simply dropped and
// the next query lazily rebuilds from scratch. The old stamp is remembered
// as retired: a query that took the old snapshot before the append and
// reaches Get after it builds for itself and caches nothing.
func (s *Store) Patch(ctx context.Context, oldPS, newPS *data.PointSet) bool {
	s.mu.Lock()
	e, ok := s.entries[oldPS.Stamp()]
	delete(s.entries, oldPS.Stamp())
	s.retired.Add(oldPS.Stamp(), struct{}{}, 1)
	s.mu.Unlock()
	if !ok {
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
	ne := &storeEntry{done: make(chan struct{}), idx: idx}
	close(ne.done)
	s.mu.Lock()
	s.entries[newPS.Stamp()] = ne
	s.mu.Unlock()
	s.patches.Add(1)
	return true
}

// Stats is a point-in-time snapshot of store behavior: the shared cache
// counters (the store is unbounded, so Capacity and Evictions stay zero)
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
