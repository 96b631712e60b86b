package geoblocks

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// ErrUnsupported is wrapped by CanServe with the routing reason when a
// request cannot be answered from the hierarchy.
var ErrUnsupported = errors.New("geoblocks: unsupported")

// Engine answers arbitrary-polygon aggregation requests from the
// hierarchy, falling back to the wrapped raster join for anything the
// stored aggregates cannot serve (ad-hoc filters, time windows, attributes
// materialized after indexing). It implements core.ContextJoiner.
type Engine struct {
	raster *core.RasterJoin
	store  *Store
}

// NewEngine returns an engine building hierarchies at the given finest
// level (<=0 uses DefaultMaxLevel) and delegating unsupported requests to
// raster. raster must be non-nil.
func NewEngine(raster *core.RasterJoin, maxLevel int) *Engine {
	return &Engine{raster: raster, store: NewStore(maxLevel)}
}

// Store exposes the hierarchy store (append patching, stats).
func (e *Engine) Store() *Store { return e.store }

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
// delegate to the wrapped raster join unchanged. The hybrid path acquires
// no canvases or pooled textures, so cancellation hygiene is structural:
// both stages poll ctx and return its error with nothing to drain.
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
