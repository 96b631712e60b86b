package core

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/geom"
)

// DensityContext renders the raw-density view: pass 1 of the pipeline with
// no polygons behind it. Every point of req that survives the filters folds
// 1 (Agg Count) or its Attr value (Agg Sum) into the pixel it lands in on a
// w×h canvas over world, in index order; req.Regions is not read. It runs
// on the shared scan and batched point pass, so it reads attached segment
// sources with zone-map pruning and polls ctx and the `core.pointpass`
// fault site once per batch. The draw is sequential whatever the joiner's
// point workers: the fold is one add per fragment, and staging fragments
// for the striped merge costs more than the second core returns (1 M
// points, 2 cores: 78 ms fanned out, 61 ms sequential). The result is the
// row-major grid and the world window the canvas actually covers.
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
	grid := make([]float64, w*h)
	err = sc.pieces(ctx, sc.Lo, sc.Hi, func(blk *data.Block, lo, hi int, needPred bool) error {
		base := blk.Base
		var attr []float64
		if attrIdx >= 0 {
			attr = blk.Attr[attrIdx]
		}
		return r.drawPoints(ctx, c, 1, lo, hi,
			func(i int) (float64, float64) { j := i - base; return blk.X[j], blk.Y[j] },
			func(px, py, i int) {
				if needPred && !sc.pred(blk, i) {
					return
				}
				v := 1.0
				if attr != nil {
					v = attr[i-base]
				}
				grid[py*w+px] += v
			})
	})
	if err != nil {
		return nil, geom.BBox{}, err
	}
	return grid, c.T.World, nil
}
