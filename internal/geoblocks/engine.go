package geoblocks

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/lru"
	"repro/internal/trace"
)

// ErrUnsupported is wrapped by CanServe with the routing reason when a
// request cannot be answered from the hierarchy.
var ErrUnsupported = errors.New("geoblocks: unsupported")

// DeclineRatio is R in the engine's cost rule: a request whose estimated
// fringe (Index.FringeEstimate) times R exceeds the indexed point count goes
// to the raster join. Refining a fringe point (a random column read and a
// whole-polygon Contains) costs several times what the raster join spends
// per scanned point, and classifying a fine layer adds to that.
//
// BenchmarkGeoBlocksLayers, one core of a Xeon VM, SUM, both paths warm,
// raster at 1024 px; "share" is the fringe estimate ÷ points:
//
//	set/target            share   hybrid    raster
//	taxi/neighborhoods    0.317   107 ms    48 ms
//	taxi/tracts           0.972   364 ms    80 ms
//	taxi/grid64           0.989   126 ms    60 ms
//	311/neighborhoods     0.376    52 ms    18 ms
//	311/tracts            0.946   126 ms    29 ms
//	311/grid64            0.993    52 ms    19 ms
//	photos/neighborhoods  0.256    33 ms   9.3 ms
//	photos/tracts         0.948   110 ms    15 ms
//	photos/grid64         0.958    31 ms   9.7 ms
//	taxi/city (E19)       0.035   7.7 ms    28 ms
//	311/city (E19)        0.025   1.1 ms   6.4 ms
//	photos/city (E19)     0.018   0.5 ms   3.8 ms
//
// (taxi 1 M, 311 250 k, photos 125 k points; the tiny and borough shapes
// measure ≤ 0.006 and the hybrid wins them 10–200×.) Every layer row loses
// on the hybrid and every shape row wins; per row, the break-even share is
// 0.07–0.47, median ≈ 0.15. R = 8 sets the threshold at 0.125: the nearest
// row above it, photos/neighborhoods, is 2× over, and the nearest below,
// taxi/city, 3.6× under. Any R in (3.9, 28) routes these rows alike.
const DeclineRatio = 8

// estimateMemo bounds how many (snapshot, region set) fringe estimates an
// engine remembers; an entry is a few dozen bytes.
const estimateMemo = 256

// estimateKey names one fringe estimate: the point-set snapshot the index
// covers and the region set.
type estimateKey struct{ points, regions uint64 }

// Engine answers arbitrary-polygon aggregation requests from the
// hierarchy, falling back to the wrapped raster join for anything the
// stored aggregates cannot serve (ad-hoc filters, time windows, attributes
// materialized after indexing) and for requests whose boundary fringe
// would cost more to refine than the raster join's scan. It implements
// core.ContextJoiner.
type Engine struct {
	raster *core.RasterJoin
	store  *Store
	// pinHybrid skips the cost rule, so every request the hierarchy can
	// serve takes the hybrid path. Only the proof suites set it (see
	// export_test.go): they compare the hybrid itself to the raster join.
	pinHybrid bool

	mu       sync.Mutex
	memo     *lru.Cache[estimateKey, int]
	declined atomic.Uint64
}

// NewEngine returns an engine building hierarchies at the given finest
// level (<=0 uses DefaultMaxLevel) and delegating unsupported requests to
// raster. raster must be non-nil.
func NewEngine(raster *core.RasterJoin, maxLevel int) *Engine {
	return &Engine{raster: raster, store: NewStore(maxLevel),
		memo: lru.New[estimateKey, int](estimateMemo)}
}

// Store exposes the hierarchy store (append patching, stats).
func (e *Engine) Store() *Store { return e.store }

// Stats returns the store's snapshot plus the number of requests the cost
// rule handed to the raster join.
func (e *Engine) Stats() Stats {
	st := e.store.Stats()
	st.Declined = e.declined.Load()
	return st
}

// Name implements core.Joiner.
func (e *Engine) Name() string { return "geoblocks-hybrid" }

// CanServe reports whether the request is answerable from stored
// aggregates. Ad-hoc range filters and time windows are not materialized —
// those keep the raster path, same as the pre-aggregation cubes.
func (e *Engine) CanServe(req core.Request) error {
	if req.Points == nil || req.Regions == nil {
		return fmt.Errorf("%w: request needs points and regions", ErrUnsupported)
	}
	if len(req.Filters) > 0 {
		return fmt.Errorf("%w: ad-hoc filter on %q", ErrUnsupported, req.Filters[0].Attr)
	}
	if req.Time != nil {
		return fmt.Errorf("%w: time window not materialized", ErrUnsupported)
	}
	if req.Agg.NeedsAttr() && req.Points.Attr(req.Attr) == nil {
		return fmt.Errorf("%w: attribute %q not in point set", ErrUnsupported, req.Attr)
	}
	return nil
}

// Join implements core.Joiner.
func (e *Engine) Join(req core.Request) (*core.Result, error) {
	return e.JoinContext(context.Background(), req)
}

// JoinContext answers the request hybrid-style: per region, classify the
// pyramid against the polygon (trace span geoblocks.plan), fold interior
// cells from stored aggregates, and resolve fringe cells with the exact
// point-in-polygon test (span geoblocks.refine). Unsupported requests
// delegate to the wrapped raster join unchanged, and so do requests the
// cost rule declines (see DeclineRatio; trace counter geoblocks.declined).
// The rule only routes: it is a pure function of the request and the index
// snapshot, and either path answers the request in full. The hybrid path
// acquires no canvases or pooled textures, so cancellation hygiene is
// structural: both stages poll ctx and return its error with nothing to
// drain.
func (e *Engine) JoinContext(ctx context.Context, req core.Request) (*core.Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := e.CanServe(req); err != nil {
		return e.raster.JoinContext(ctx, req)
	}
	idx, err := e.store.Get(ctx, req.Points)
	if err != nil {
		return nil, err
	}
	// An attribute added to the point set after indexing is absent from
	// the hierarchy; the raster path still serves it exactly.
	var ap *attrPyr
	if req.Agg.NeedsAttr() {
		if ap = idx.attrs[req.Attr]; ap == nil {
			return e.raster.JoinContext(ctx, req)
		}
	}

	tr := trace.FromContext(ctx)
	if !e.pinHybrid {
		est, err := e.fringeEstimate(ctx, idx, req.Points, req.Regions)
		if err != nil {
			return nil, err
		}
		if est*DeclineRatio > idx.Len() {
			e.declined.Add(1)
			tr.Count("geoblocks.declined", 1)
			return e.raster.JoinContext(ctx, req)
		}
	}
	regions := req.Regions.Regions

	sp := tr.Start("geoblocks.plan")
	plans := make([]Plan, len(regions))
	var interior, fringe, refined int
	for k := range regions {
		plans[k], err = idx.Classify(ctx, regions[k].Poly)
		if err != nil {
			sp.End()
			return nil, err
		}
		interior += len(plans[k].Interior)
		fringe += len(plans[k].Fringe)
		refined += idx.FringePoints(plans[k])
	}
	sp.End()

	sp = tr.Start("geoblocks.refine")
	stats := make([]core.RegionStat, len(regions))
	for k := range regions {
		stats[k], err = idx.RegionStat(ctx, regions[k].Poly, plans[k], ap)
		if err != nil {
			sp.End()
			return nil, err
		}
	}
	sp.End()

	tr.Count("geoblocks.interior_cells", int64(interior))
	tr.Count("geoblocks.fringe_cells", int64(fringe))
	tr.Count("geoblocks.refined_points", int64(refined))

	return &core.Result{
		Stats:     stats,
		Algorithm: fmt.Sprintf("geoblocks-hybrid(maxlevel=%d)", e.store.MaxLevel()),
		PixelSize: idx.CellWidth(),
	}, nil
}

// fringeEstimate returns idx.FringeEstimate(rs), memoized per (snapshot,
// region set). A single ring is traced in microseconds, and an ad-hoc ring
// is usually a new region set each time, so it is not memoized.
func (e *Engine) fringeEstimate(ctx context.Context, idx *Index, ps *data.PointSet, rs *data.RegionSet) (int, error) {
	if rs.Len() <= 1 {
		return idx.FringeEstimate(ctx, rs)
	}
	key := estimateKey{points: ps.Stamp(), regions: rs.Stamp()}
	e.mu.Lock()
	n, ok := e.memo.Get(key)
	e.mu.Unlock()
	if ok {
		return n, nil
	}
	n, err := idx.FringeEstimate(ctx, rs)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.memo.Add(key, n, 1)
	e.mu.Unlock()
	return n, nil
}
