package core

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/raster"
)

// AggSpec is one aggregate of a multi-aggregate join: its function,
// attribute, and the per-aggregate constraints layered on top of the
// request's own filters. Urbane's ranking view computes several metrics
// over the same data and layer; MultiJoinContext evaluates them in one render
// instead of one render per metric.
type AggSpec struct {
	Agg     Agg
	Attr    string
	Filters []Filter
	Time    *TimeFilter
}

// MultiJoinContext evaluates all specs against the request's points and
// regions in a single raster pipeline: one point pass feeding per-spec
// textures, one polygon pass reading them all. The request's Agg/Attr are
// ignored; its Filters and Time apply to every spec, and each spec's own
// Filters/Time compose on top. Results are identical to running each spec as
// its own join, per mode.
//
// It runs the points-first strategy (the texture-sharing win does not exist
// polygons-first) and supports both Approximate and Accurate modes, with
// tiling and JoinContext's cancellation granularity: between point batches,
// between region claims, and between canvas tiles.
func (r *RasterJoin) MultiJoinContext(ctx context.Context, req Request, specs []AggSpec) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: MultiJoin needs at least one spec")
	}
	req.Agg = Count
	req.Attr = ""
	if err := req.Validate(); err != nil {
		return nil, err
	}
	src := req.Data()
	// Per-spec validation and predicate/attr resolution. Each spec's time
	// restriction folds into its residual predicate (different specs may
	// carry different windows, so range narrowing happens only globally).
	attrIdxs := make([]int, len(specs))
	preds := make([]residualPred, len(specs))
	for s, spec := range specs {
		attrIdxs[s] = -1
		if spec.Agg == Min || spec.Agg == Max {
			return nil, fmt.Errorf("core: MultiJoin supports COUNT/SUM/AVG, not %v", spec.Agg)
		}
		if spec.Agg.NeedsAttr() {
			attrIdxs[s] = data.AttrIndex(src, spec.Attr)
			if attrIdxs[s] < 0 {
				return nil, fmt.Errorf("core: spec %d: %v needs attribute %q",
					s, spec.Agg, spec.Attr)
			}
		}
		if spec.Time != nil && !src.HasTime() {
			return nil, fmt.Errorf("core: spec %d: time filter on point set %q without timestamps",
				s, src.Name())
		}
		p, err := newResidualPred(src, spec.Filters, spec.Time)
		if err != nil {
			return nil, fmt.Errorf("core: spec %d: %w", s, err)
		}
		preds[s] = p
	}

	results := make([]*Result, len(specs))
	for s := range specs {
		results[s] = &Result{
			Stats:     make([]RegionStat, req.Regions.Len()),
			Algorithm: r.Name() + "-multi",
		}
	}
	window := req.Regions.Bounds()
	if window.IsEmpty() || src.Len() == 0 {
		return results, nil
	}
	full := r.fullTransform(window)
	for s := range results {
		results[s].CanvasW, results[s].CanvasH = full.W, full.H
		results[s].PixelSize = full.PixelWidth()
	}
	// The global scan prunes on the request-wide filters and time window
	// only; spec-level constraints stay per-point (a block useless to one
	// spec may still feed another).
	sc, err := r.newScan(req)
	if err != nil {
		return nil, err
	}
	// The scan reads every spec's attribute and predicate columns too.
	sc.cols.Need(attrIdxs...)
	for s := range preds {
		preds[s].need(&sc.cols)
	}

	err = r.dev.Tiles(full, func(c *gpu.Canvas, offX, offY int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for s := range results {
			results[s].Tiles++
		}
		sc.setWorld(c.T.World)
		return r.renderTileMulti(ctx, c, req, results, specs, attrIdxs, preds, sc)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// multiObs is one retained boundary observation of the multi join: the
// point's coordinates plus, per spec, whether its predicate passed and the
// attribute value. Captured at bin time because the source block may be
// evicted before the fix-up pass runs.
type multiObs struct {
	x, y float64
	ok   []bool
	val  []float64
}

// renderTileMulti is the tile pipeline generalized to several aggregates
// sharing the point and polygon passes. It stays separate from tile: a
// boundary observation must remember which specs it passed (multiObs), and
// N single-spec tiles would scan and draw the points N times, where this
// pass scans them once, and repeat each exact test once per spec.
func (r *RasterJoin) renderTileMulti(ctx context.Context, c *gpu.Canvas, req Request, results []*Result,
	specs []AggSpec, attrIdxs []int, preds []residualPred, sc *Scan) error {

	w, h := c.T.W, c.T.H

	sp, err := r.CompiledSpans(ctx, req.Regions, c.T)
	if err != nil {
		return err
	}

	// Boundary observations are binned per slot; a slot is one pixel, so
	// its bin has the pixel's row stripe owner as its only writer.
	var mask *raster.Bitmap
	var bins [][]multiObs
	if r.mode == Accurate {
		mask = sp.Mask()
		bins = make([][]multiObs, sp.Slots())
	}

	// Point pass: one texture pair per spec, all pooled and released on
	// every exit path.
	countTex := make([]*gpu.Texture, len(specs))
	sumTex := make([]*gpu.Texture, len(specs))
	defer func() {
		for s := range specs {
			r.dev.ReleaseTexture(countTex[s])
			r.dev.ReleaseTexture(sumTex[s])
		}
	}()
	for s := range specs {
		countTex[s] = r.dev.AcquireTexture(w, h)
		if attrIdxs[s] >= 0 {
			sumTex[s] = r.dev.AcquireTexture(w, h)
		}
	}
	err = sc.pieces(ctx, sc.Lo, sc.Hi, func(blk *data.Block, lo, hi int, needPred bool) error {
		base := blk.Base
		return r.drawPoints(ctx, c, r.pointWorkers, lo, hi,
			func(i int) (float64, float64) { j := i - base; return blk.X[j], blk.Y[j] },
			func(px, py, i int) {
				if needPred && !sc.pred(blk, i) {
					return
				}
				j := i - base
				var mo *multiObs
				if mask != nil && mask.Get(px, py) {
					mo = &multiObs{x: blk.X[j], y: blk.Y[j],
						ok: make([]bool, len(specs)), val: make([]float64, len(specs))}
				}
				any := false
				for s := range specs {
					pass := preds[s].empty() || preds[s].eval(blk, i)
					if mo != nil {
						mo.ok[s] = pass
						if pass && attrIdxs[s] >= 0 {
							mo.val[s] = blk.Attr[attrIdxs[s]][j]
						}
					}
					if !pass {
						continue
					}
					any = true
					countTex[s].Add(px, py, 1)
					if sumTex[s] != nil {
						sumTex[s].Add(px, py, blk.Attr[attrIdxs[s]][j])
					}
				}
				if any && mo != nil {
					slot := sp.Slot(px, py)
					bins[slot] = append(bins[slot], *mo)
				}
			})
	})
	if err != nil {
		return err
	}

	// Polygon pass: one traversal per region accumulating every spec, over
	// the region's interior in accurate mode, then the exact pass over its
	// boundary pixels' bins.
	return r.parallelRegionsCtx(ctx, req.Regions.Len(), func(k int) {
		cnt := make([]int64, len(specs))
		sum := make([]float64, len(specs))
		c.DrawSpans(polygonSpans(sp, k, mask != nil), func(px, py int) {
			for s := range specs {
				v := countTex[s].At(px, py)
				if v == 0 {
					continue
				}
				cnt[s] += int64(v)
				if sumTex[s] != nil {
					//lint:ignore floataccum per-fragment hot loop mirroring GPU additive blending; trip count bounded by tile pixels
					sum[s] += sumTex[s].At(px, py)
				}
			}
		})
		if mask != nil {
			slots := sp.BoundarySlots(k)
			for i, idx := range sp.Boundary(k) {
				bin := bins[slots[i]]
				if len(bin) == 0 {
					continue
				}
				edges := sp.RowEdges(k, int(idx)/w)
				for _, mo := range bin {
					if !edges.Contains(geom.Point{X: mo.x, Y: mo.y}) {
						continue
					}
					for s := range specs {
						if !mo.ok[s] {
							continue
						}
						cnt[s]++
						if attrIdxs[s] >= 0 {
							//lint:ignore floataccum boundary fix-up over one pixel's point bin; dozens of terms at most
							sum[s] += mo.val[s]
						}
					}
				}
			}
		}
		for s := range specs {
			results[s].Stats[k].Count += cnt[s]
			//lint:ignore floataccum merge of one partial per canvas tile; tile count is single digits
			results[s].Stats[k].Sum += sum[s]
		}
	})
}
