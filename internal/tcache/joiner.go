package tcache

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fsum"
	"repro/internal/qcache"
	"repro/internal/trace"
)

// ErrUnsupported is wrapped by CanServe with the routing reason when a
// request cannot be answered by slab decomposition.
var ErrUnsupported = errors.New("tcache: unsupported")

// Joiner answers slab-aligned time-windowed aggregation requests as a
// chronological fold of cached slab partials, computing missing slabs
// as series joins of the wrapped raster joiner. It implements
// core.Joiner; requests CanServe rejects delegate to the wrapped
// joiner unchanged.
type Joiner struct {
	next  *core.RasterJoin
	gran  int64
	limit int
	cache *Cache

	reused     atomic.Uint64
	recomputed atomic.Uint64
}

// New returns a slab joiner at the given granularity (the server's
// -time-snap bucket, > 1) over next. cacheBytes <= 0 uses
// DefaultCacheBytes; maxSlabs <= 0 uses DefaultMaxSlabs.
func New(next *core.RasterJoin, gran int64, cacheBytes int64, maxSlabs int) *Joiner {
	if maxSlabs <= 0 {
		maxSlabs = DefaultMaxSlabs
	}
	return &Joiner{next: next, gran: gran, limit: maxSlabs, cache: NewCache(cacheBytes)}
}

// Name implements core.Joiner.
func (j *Joiner) Name() string { return "slab-fold" }

// Gran returns the slab granularity in seconds.
func (j *Joiner) Gran() int64 { return j.gran }

// MaxSlabs returns the per-window slab cap.
func (j *Joiner) MaxSlabs() int { return j.limit }

// Cache exposes the slab partial cache (append rekeying, stats).
func (j *Joiner) Cache() *Cache { return j.cache }

// SlabsReused returns the lifetime count of partials served from cache.
func (j *Joiner) SlabsReused() uint64 { return j.reused.Load() }

// SlabsRecomputed returns the lifetime count of partials computed fresh.
func (j *Joiner) SlabsRecomputed() uint64 { return j.recomputed.Load() }

// CanServe reports whether the request decomposes into slabs: it needs an
// in-RAM point set (the identity stamp keys the cache), a time window
// aligned to the slab granularity on both ends — which every window the
// server snapped outward with the same granularity is — and a slab count
// within the cap.
func (j *Joiner) CanServe(req core.Request) error {
	if req.Points == nil || req.Regions == nil {
		return fmt.Errorf("%w: request needs points and regions", ErrUnsupported)
	}
	if req.Time == nil {
		return fmt.Errorf("%w: no time window to decompose", ErrUnsupported)
	}
	if j.gran <= 1 {
		return fmt.Errorf("%w: slab granularity disabled", ErrUnsupported)
	}
	if req.Time.Start%j.gran != 0 || req.Time.End%j.gran != 0 {
		return fmt.Errorf("%w: window [%d,%d) not aligned to %ds slabs",
			ErrUnsupported, req.Time.Start, req.Time.End, j.gran)
	}
	n := (req.Time.End - req.Time.Start) / j.gran
	if n < 1 {
		return fmt.Errorf("%w: empty window", ErrUnsupported)
	}
	if n > int64(j.limit) {
		return fmt.Errorf("%w: window spans %d slabs, cap is %d", ErrUnsupported, n, j.limit)
	}
	return nil
}

// requestSig canonicalizes the time-invariant part of the request: every
// field a slab partial depends on except the slab window itself. The
// granularity participates so resizing the slab width can never alias
// partials; the region set's identity stamp stands in for its geometry.
func (j *Joiner) requestSig(req core.Request) string {
	return qcache.NewSig("slab").
		Int("gran", j.gran).
		Int("regions", int64(req.Regions.Stamp())).
		Str("agg", req.Agg.String()).Str("attr", req.Attr).
		Filters("f", req.Filters).Key()
}

// JoinContext answers the request as a chronological fold of slab
// partials. Each maximal run of missing slabs is computed by one series join
// of the wrapped joiner, one bin per slab, so the polygon side of the run is
// prepared once; each bin is bit-identical to a JoinContext over its slab,
// for every aggregate, mode and canvas, and the series polls ctx itself.
// The fold is the canonical compute path: a warm fold and a cold fold of
// the same window are bit-identical, because per-slab computes are
// deterministic and the merge runs in fixed chronological order with one
// compensated sum per region. A fold whose slabs are all cached polls ctx
// nowhere else, so it is checked once up front.
func (j *Joiner) JoinContext(ctx context.Context, req core.Request) (*core.Result, error) {
	if err := j.CanServe(req); err != nil {
		return j.next.JoinContext(ctx, req)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sig := j.requestSig(req)
	// An append may land mid-fold; the partials still file under the stamp
	// they were computed from (see Cache.Put).
	stamp := req.Points.Stamp()
	tr := trace.FromContext(ctx)
	sp := tr.Start("tcache.fold")
	defer sp.End()

	n := int((req.Time.End - req.Time.Start) / j.gran)
	slab := func(i int) int64 { return req.Time.Start + int64(i)*j.gran }
	parts := make([]*core.Result, n)
	var reused, recomputed int64
	for i := range parts {
		if p, ok := j.cache.Get(stamp, sig, slab(i)); ok {
			parts[i] = p
			reused++
		}
	}
	for lo := 0; lo < n; {
		if parts[lo] != nil {
			lo++
			continue
		}
		hi := lo + 1
		for hi < n && parts[hi] == nil {
			hi++
		}
		run, err := j.next.SeriesJoinContext(ctx, req, slab(lo), slab(hi), hi-lo)
		if err != nil {
			return nil, err
		}
		copy(parts[lo:hi], run)
		for i := lo; i < hi; i++ {
			j.cache.Put(stamp, sig, slab(i), parts[i])
		}
		recomputed += int64(hi - lo)
		lo = hi
	}
	j.reused.Add(uint64(reused))
	j.recomputed.Add(uint64(recomputed))
	tr.Count("tcache.slabs_reused", reused)
	tr.Count("tcache.slabs_recomputed", recomputed)

	// Chronological merge: counts add, min/max are monotone, sums fold
	// through one Kahan accumulator per region so the result is independent
	// of which partials came from cache. Empty slabs contribute nothing —
	// including to min/max, which are only meaningful under nonzero counts.
	regions := len(parts[0].Stats)
	stats := make([]core.RegionStat, regions)
	sums := make([]fsum.Kahan, regions)
	for _, p := range parts {
		for r := 0; r < regions; r++ {
			ps := p.Stats[r]
			if ps.Count == 0 {
				continue
			}
			s := &stats[r]
			if s.Count == 0 {
				s.Min, s.Max = ps.Min, ps.Max
			} else {
				if ps.Min < s.Min {
					s.Min = ps.Min
				}
				if ps.Max > s.Max {
					s.Max = ps.Max
				}
			}
			s.Count += ps.Count
			sums[r].Add(ps.Sum)
		}
	}
	for r := range stats {
		if stats[r].Count > 0 {
			stats[r].Sum = sums[r].Sum()
		}
	}

	// The execution metadata is slab-invariant: the canvas transform
	// derives from the region bounds alone, so every partial of one
	// signature carries identical Algorithm/canvas fields. Reporting the
	// wrapped joiner's own name keeps single-slab responses byte-identical
	// to the legacy path.
	res := *parts[0]
	res.Stats = stats
	return &res, nil
}
