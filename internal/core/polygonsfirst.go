package core

import (
	"context"
	"sync"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/raster"
)

// Strategy selects which side of the join is rasterized first.
type Strategy int

const (
	// PointsFirst renders the points into count/sum textures, then probes
	// them with one polygon draw per region — the default formulation.
	// Work: O(points) + O(total polygon fragments) texture reads.
	PointsFirst Strategy = iota
	// PolygonsFirst renders the regions into a polygon-ID texture, then
	// streams the points once, each fragment reading its pixel's region ID —
	// the paper's alternative formulation. Work: O(total polygon fragments)
	// + O(points) ID reads; it wins when regions cover many pixels or many
	// aggregates share one polygon render.
	PolygonsFirst
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == PolygonsFirst {
		return "polygons-first"
	}
	return "points-first"
}

// WithStrategy selects the execution strategy (default PointsFirst).
func WithStrategy(s Strategy) RJOption { return func(r *RasterJoin) { r.strategy = s } }

// Strategy returns the configured execution strategy.
func (r *RasterJoin) Strategy() Strategy { return r.strategy }

// idState is the polygon-ID render target: one region ID per pixel, with an
// overflow table for the (rare, or overlap-induced) pixels covered by more
// than one region. IDs are region positions; -1 is empty.
type idState struct {
	w   int
	ids []int32
	// extra holds additional covering regions for pixels where ids is
	// already taken — the multi-layer case real GPUs handle with k-buffer
	// style tricks.
	extra map[int32][]int32
}

func newIDState(w, h int) *idState {
	s := &idState{w: w, ids: make([]int32, w*h), extra: make(map[int32][]int32)}
	for i := range s.ids {
		s.ids[i] = -1
	}
	return s
}

func (s *idState) add(px, py int, k int32) {
	i := int32(py*s.w + px)
	if s.ids[i] == -1 {
		s.ids[i] = k
		return
	}
	s.extra[i] = append(s.extra[i], k)
}

// owners calls fn with every region covering pixel index i.
func (s *idState) owners(i int32, fn func(k int32)) {
	if s.ids[i] == -1 {
		return
	}
	fn(s.ids[i])
	for _, k := range s.extra[i] {
		fn(k)
	}
}

// renderTilePolygonsFirst runs the polygons-first pipeline on one tile:
//
//  1. ID pass — every region is drawn into the polygon-ID texture. In
//     accurate mode, fragments in the region's own boundary pixels are
//     withheld from the ID texture (their membership is uncertain).
//  2. Point pass — each filtered point reads its pixel's owner IDs and
//     accumulates directly into those regions' slots. In accurate mode,
//     points in boundary pixels instead take exact point-in-polygon tests
//     against the regions whose boundaries cross that pixel.
//
// Aggregation per region slot uses shard-local accumulators: the point
// stream is the only writer, so a single pass owns all slots.
func (r *RasterJoin) renderTilePolygonsFirst(ctx context.Context, c *gpu.Canvas, req Request, stats []RegionStat,
	sc *Scan, attrIdx int) error {

	w, h := c.T.W, c.T.H
	regions := req.Regions.Regions
	minMax := req.Agg == Min || req.Agg == Max

	// The compiled region layer for the ID pass and the exact tests.
	sp, err := r.CompiledSpans(ctx, req.Regions, c.T)
	if err != nil {
		return err
	}

	// Accurate mode: a boundary pixel's candidates are the regions whose
	// edges cross it, its slot's positions in the compiled boundary lists.
	var mask *raster.Bitmap
	var slots raster.SlotIndex
	if r.mode == Accurate {
		mask, slots = sp.Mask(), sp.SlotIndex()
	}

	// Pass 1: polygon-ID texture. With accurate mode, only each region's
	// interior is drawn: a fragment in the region's own boundary pixel is
	// withheld (its membership is resolved exactly below); a fragment in
	// *another* region's boundary pixel is still certain — no edge of this
	// region crosses that pixel, so the pixel lies entirely inside it.
	idTex := newIDState(w, h)
	for k := range regions {
		if err := ctx.Err(); err != nil {
			return err
		}
		k32 := int32(k)
		c.DrawSpans(polygonSpans(sp, k, mask != nil), func(px, py int) { idTex.add(px, py, k32) })
	}

	// Pass 2: stream the points, sharded across workers with per-shard
	// accumulators (the GPU uses atomics; shard-merge is the deterministic
	// software analogue). The shader writes region-keyed slots, so this pass
	// cannot use the pixel-striped DrawPointsParallel merge; it shards the
	// accumulators themselves instead, with the shard count following the
	// same -point-workers knob.
	lo, hi := sc.Lo, sc.Hi
	workers := r.pointWorkers
	n := hi - lo
	if workers > 1 && n < 4096 {
		workers = 1
	}
	if workers < 1 {
		workers = 1
	}
	shard := (n + workers - 1) / workers
	if shard < 1 {
		shard = 1
	}
	type partial struct {
		stats []RegionStat
	}
	// Race audit (sharedwrite-clean): every goroutine accumulates into the
	// `part` slice it receives as an argument; the canvas draw calls only
	// read shared state (idTex and the compiled layer are immutable once
	// built) and the scan, which is frozen before the fan-out. Partials
	// merge after wg.Wait().
	//
	// Shards cut the global [lo, hi) range — not the surviving blocks — so
	// the partial merge order, and with it the float Sum, is identical at
	// every worker count and to the in-RAM path; block iteration only clips
	// within each shard.
	parts := make([]partial, 0, workers)
	var wg sync.WaitGroup
	for s := lo; s < hi; s += shard {
		e := s + shard
		if e > hi {
			e = hi
		}
		p := partial{stats: make([]RegionStat, len(stats))}
		parts = append(parts, p)
		wg.Add(1)
		go func(s, e int, part []RegionStat) {
			defer wg.Done()
			// Each shard issues its own (possibly batched) draw calls on
			// the shared canvas; cancellation surfaces as ctx.Err() after
			// the barrier, so the per-shard error can be dropped here.
			_ = sc.pieces(ctx, s, e, func(blk *data.Block, plo, phi int, needPred bool) error {
				base := blk.Base
				var attr []float64
				if attrIdx >= 0 {
					attr = blk.Attr[attrIdx]
				}
				return r.drawPoints(ctx, c, 1, plo, phi,
					func(i int) (float64, float64) { j := i - base; return blk.X[j], blk.Y[j] },
					func(px, py, i int) {
						if needPred && !sc.pred(blk, i) {
							return
						}
						j := i - base
						idx := int32(py*w + px)
						accum := func(k int32) {
							switch {
							case minMax:
								part[k].Observe(attr[j])
							case attr != nil:
								part[k].Count++
								part[k].Sum += attr[j]
							default:
								part[k].Count++
							}
						}
						if mask != nil && mask.Get(px, py) {
							// Boundary pixel: exact tests against crossing
							// regions; certain owners still apply.
							pt := geom.Point{X: blk.X[j], Y: blk.Y[j]}
							for _, q := range slots.Positions(sp.Slot(px, py)) {
								k := sp.RegionOf(q)
								if sp.RowEdges(k, py).Contains(pt) {
									accum(int32(k))
								}
							}
						}
						idTex.owners(idx, accum)
					})
			})
		}(s, e, p.stats)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, p := range parts {
		for k := range p.stats {
			stats[k].Merge(p.stats[k])
		}
	}
	return nil
}
