package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/raster"
	"repro/internal/trace"
)

// Mode selects the raster join variant.
type Mode int

const (
	// Approximate assigns every point the pixel-center classification of
	// its pixel — the paper's plain raster join. Points within one pixel
	// diagonal of a region boundary may be misassigned.
	Approximate Mode = iota
	// Accurate keeps raster-space aggregation for interior pixels but runs
	// an exact point-in-polygon test for fragments in boundary pixels,
	// producing exact results — the paper's hybrid accurate variant.
	Accurate
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Accurate {
		return "accurate"
	}
	return "approximate"
}

// RasterJoin evaluates spatial aggregations on the GPU device by drawing.
// Construct with NewRasterJoin; the zero value is not usable.
type RasterJoin struct {
	dev        *gpu.Device
	mode       Mode
	resolution int
	epsilon    float64
	workers    int
	pointBatch int
	// blockPrune turns zone-map block pruning on (always, outside tests):
	// off, the scan decodes and draws every block, the reference the
	// segment equivalence suite compares pruned scans against.
	blockPrune bool
}

// RJOption configures a RasterJoin.
type RJOption func(*RasterJoin)

// WithDevice renders on the given device (default: a fresh device with
// default limits).
func WithDevice(d *gpu.Device) RJOption { return func(r *RasterJoin) { r.dev = d } }

// WithMode selects Approximate (default) or Accurate.
func WithMode(m Mode) RJOption { return func(r *RasterJoin) { r.mode = m } }

// WithResolution sets the canvas size (longest side, pixels) used when no
// error bound is given. This is the screen-resolution-driven mode the map
// view uses. Default 1024.
func WithResolution(n int) RJOption {
	return func(r *RasterJoin) {
		if n > 0 {
			r.resolution = n
		}
	}
}

// WithEpsilon activates bounded raster join: the canvas resolution is chosen
// so each pixel's diagonal is at most eps world units, guaranteeing that
// only points within eps of a region boundary can be misassigned. The
// canvas is tiled into multiple passes when it exceeds the device limit.
func WithEpsilon(eps float64) RJOption {
	return func(r *RasterJoin) {
		if eps > 0 {
			r.epsilon = eps
		}
	}
}

// WithWorkers caps render parallelism (default: GOMAXPROCS). The software
// device parallelizes the polygon pass across regions and the flow join's
// OD pass across point ranges; on a real GPU this is shader-core
// occupancy. Results are bit-identical at any setting.
func WithWorkers(n int) RJOption {
	return func(r *RasterJoin) {
		if n > 0 {
			r.workers = n
		}
	}
}

// WithPointBatch caps the number of point vertices submitted per draw call,
// modelling the GPU vertex-buffer budget: data sets larger than GPU memory
// are streamed in batches, exactly as the paper's implementation does.
// Results are identical regardless of batch size. <= 0 (default) submits
// everything in one draw.
func WithPointBatch(n int) RJOption {
	return func(r *RasterJoin) {
		if n > 0 {
			r.pointBatch = n
		}
	}
}

// CompiledSpans returns the region set compiled on transform t — spans,
// boundary mask and slots, interior runs and row-edge tables — from the
// device's span cache, compiling it on a miss. With the cache disabled every
// call compiles, and so does every call on a set of one region: that is an
// ad-hoc polygon, whose fresh stamp no later request names, so caching it
// would only crowd out the layers (geoblocks' fringe memo skips it too).
// Compilation respects ctx; a cache hit or miss is recorded on the request
// trace. Besides the joins, choropleth renders replay layers from it.
func (r *RasterJoin) CompiledSpans(ctx context.Context, regions *data.RegionSet, t raster.Transform) (*raster.RegionSpans, error) {
	cache := r.dev.SpanCache()
	if regions.Len() <= 1 {
		cache = nil
	}
	key := raster.SpanKey{Owner: regions.Stamp(), T: t}
	if sp, ok := cache.Get(key); ok {
		trace.FromContext(ctx).Count("span_cache_hits", 1)
		return sp, nil
	}
	polys := make([]geom.Polygon, regions.Len())
	for k := range regions.Regions {
		polys[k] = regions.Regions[k].Poly
	}
	sp, err := raster.CompileRegions(ctx, t, polys)
	if err != nil {
		return nil, err
	}
	if cache.Enabled() {
		cache.Put(key, sp)
		trace.FromContext(ctx).Count("span_cache_misses", 1)
	}
	return sp, nil
}

// NewRasterJoin returns a configured raster joiner.
func NewRasterJoin(opts ...RJOption) *RasterJoin {
	r := &RasterJoin{
		mode:       Approximate,
		resolution: 1024,
		workers:    runtime.GOMAXPROCS(0),
		blockPrune: true,
	}
	for _, o := range opts {
		o(r)
	}
	if r.dev == nil {
		r.dev = gpu.New()
	}
	return r
}

// Name implements Joiner.
func (r *RasterJoin) Name() string {
	if r.epsilon > 0 {
		return fmt.Sprintf("raster-join-%s-eps%g", r.mode, r.epsilon)
	}
	return fmt.Sprintf("raster-join-%s-%dpx", r.mode, r.resolution)
}

// Device returns the GPU device the joiner renders on.
func (r *RasterJoin) Device() *gpu.Device { return r.dev }

// JoinContext implements Joiner: the join is abandoned with ctx.Err()
// as soon as cancellation is observed — between point batches, between
// region claims of the polygon pass, and between canvas tiles — and every
// canvas and pooled texture is released before returning, so an aborted
// query leaves the device pool fully reusable.
func (r *RasterJoin) JoinContext(ctx context.Context, req Request) (*Result, error) {
	return r.join(ctx, req, nil)
}

// join runs JoinContext and, with a plan, JoinScattered: with a nil plan
// pass 1 scans the request's source locally; with a plan pass 1 is
// scattered across shards and gathered into the same tile state.
func (r *RasterJoin) join(ctx context.Context, req Request, plan ScatterPlan) (*Result, error) {
	out, err := r.tileLoop(ctx, req, 1, plan == nil, joinTile(ctx, req, plan))
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// tileBody is one join shape's work on a canvas tile: pass 1 into t and
// resolve into out.
type tileBody func(t *tile, sc *Scan, attrIdx int, out []*Result) error

// joinTile is join's tile body: pass 1, local or gathered, then resolve.
func joinTile(ctx context.Context, req Request, plan ScatterPlan) tileBody {
	return func(t *tile, sc *Scan, attrIdx int, out []*Result) error {
		var err error
		if plan != nil {
			err = t.gather(ctx, req, attrIdx, plan)
		} else {
			err = t.drawScan(ctx, sc, sc.Lo, sc.Hi, attrIdx)
		}
		if err != nil {
			return err
		}
		return t.resolve(ctx, out[0].Stats)
	}
}

// tileLoop is the pipeline every join shares, plain and series alike. It
// validates req, passes the `core.join` fault site and returns bins results
// with zeroed stats: when the layer's window or the data set is empty, with
// no canvas; otherwise body runs once per tile of the full-resolution
// canvas, on a fresh tile released on every exit path (clean only when body
// returned nil, see tile.release), the scan compiled from req and re-aimed
// at the tile (nil unless scan: the scatter-gather draws pass 1 on the
// shards) and the aggregate's attribute column, and the results carry the
// canvas metadata. Each tile that completes adds its stage times to the
// join's stage spans — core.pass1 (over a local scan; the scatter-gather
// traces shard.scatter and shard.gather instead) and core.accumulate, and
// in accurate mode core.collect and core.refine, which carries the
// boundary_obs and refine_edge_tests counters of the tile's resolves.
func (r *RasterJoin) tileLoop(ctx context.Context, req Request, bins int, scan bool,
	body tileBody) ([]*Result, error) {

	if err := req.Validate(); err != nil {
		return nil, err
	}
	// `core.join` is a fault injection site covering the whole-join entry.
	if err := fault.Inject(ctx, "core.join"); err != nil {
		return nil, err
	}
	out := make([]*Result, bins)
	for b := range out {
		out[b] = &Result{Stats: make([]RegionStat, req.Regions.Len()), Algorithm: r.Name()}
	}
	window := req.Regions.Bounds()
	src := req.Data()
	if window.IsEmpty() || src.Len() == 0 {
		return out, nil
	}

	full := r.fullTransform(window)
	var sc *Scan
	if scan {
		var err error
		if sc, err = r.newScan(req); err != nil {
			return nil, err
		}
	}
	attrIdx := -1
	if req.Agg.NeedsAttr() {
		attrIdx = data.AttrIndex(src, req.Attr)
	}

	tr := trace.FromContext(ctx)
	var spans [stages]*trace.Span
	for s := range spans {
		if s == stagePass1 && !scan || s >= stageCollect && r.mode != Accurate {
			continue
		}
		spans[s] = tr.Stage(stageNames[s])
	}
	tiles := 0
	err := r.dev.Tiles(full, func(c *gpu.Canvas, offX, offY int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		tiles++
		tr.Count("tiles", 1)
		if sc != nil {
			// Tiles render sequentially, so re-aiming the scan's spatial
			// bound per tile — and a series' time window per bin — is safe.
			sc.setWorld(c.T.World)
		}
		t, err := r.newTile(ctx, c, req.Regions, req.Agg)
		if err != nil {
			return err
		}
		clean := false
		defer func() { t.release(clean) }()
		if err := body(t, sc, attrIdx, out); err != nil {
			return err
		}
		clean = true
		for s, sp := range spans {
			sp.Add(t.spent[s])
		}
		if t.mask != nil {
			spans[stageRefine].Count("boundary_obs", t.nobs)
			spans[stageRefine].Count("refine_edge_tests", t.tests)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, res := range out {
		res.CanvasW, res.CanvasH, res.Tiles, res.PixelSize = full.W, full.H, tiles, full.PixelWidth()
	}
	return out, nil
}

// fullTransform derives the full-resolution canvas transform from either the
// error bound (pixel diagonal <= epsilon) or the display resolution.
func (r *RasterJoin) fullTransform(window geom.BBox) raster.Transform {
	var pixel float64
	if r.epsilon > 0 {
		pixel = r.epsilon / math.Sqrt2
	} else {
		pixel = math.Max(window.Width(), window.Height()) / float64(r.resolution)
	}
	if pixel <= 0 {
		pixel = 1
	}
	return raster.SquareTransform(window, pixel)
}
