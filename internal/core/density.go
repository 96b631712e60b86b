package core

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/gpu"
)

// DensityContext renders the raw-density view: pass 1 of the pipeline with
// no polygons behind it. Every point of req that survives the filters folds
// 1 (Agg Count) or its Attr value (Agg Sum) into the pixel it lands in on a
// w×h canvas over world, in index order; req.Regions is not read. It runs
// the join's pass 1 (scan, batches, per-batch ctx and `core.pointpass`
// fault polls) into plain-allocated targets, so it reads attached segment
// sources with zone-map pruning. The result is the row-major grid and the
// world window the canvas actually covers.
func (r *RasterJoin) DensityContext(ctx context.Context, req Request, world geom.BBox, w, h int) ([]float64, geom.BBox, error) {
	if req.Points == nil && req.Source == nil {
		return nil, geom.BBox{}, fmt.Errorf("core: density needs points")
	}
	if req.Agg != Count && req.Agg != Sum {
		return nil, geom.BBox{}, fmt.Errorf("core: density folds COUNT or SUM, not %v", req.Agg)
	}
	if err := req.validatePoints(); err != nil {
		return nil, geom.BBox{}, err
	}
	sc, err := r.newScan(req)
	if err != nil {
		return nil, geom.BBox{}, err
	}
	c, err := r.dev.NewCanvas(world, w, h)
	if err != nil {
		return nil, geom.BBox{}, err
	}
	defer c.Release()
	sc.setWorld(c.T.World)
	attrIdx := -1
	if req.Agg == Sum {
		attrIdx = data.AttrIndex(sc.Src, req.Attr)
	}
	t := newTargets(req.Agg, 0, w, h, nil, gpu.NewTexture)
	if err := r.pass1(ctx, &t, c.PixelMap(), sc, sc.Lo, sc.Hi, attrIdx, "batches"); err != nil {
		return nil, geom.BBox{}, err
	}
	grid := t.count
	if t.sum != nil {
		grid = t.sum
	}
	return grid.Data, c.T.World, nil
}
