package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/raster"
)

// This file is the paper's points-first drawing pipeline, written once:
//
//  1. Point pass — filtered points are drawn with additive blending into a
//     per-pixel count texture and, by aggregate, a sum texture (SUM/AVG) or
//     a min/max texture (the MIN/MAX blend equations over ±Inf).
//  2. Polygon pass — each region is drawn; every covered fragment folds the
//     point textures into the region's accumulator.
//  3. (Accurate only) Outline pass + exact pass — fragments in boundary
//     pixels are excluded from pass 2 and instead resolved by exact
//     point-in-polygon tests against the points binned in those pixels.
//
// JoinContext, the scatter-gather gather, StreamJoin and SeriesJoinContext
// all run on one tile; a shard's partial pass runs on the bare targets. A
// series tile banks pass 2's fragments once and resolves each bin with
// resolveBin (series.go), passes 2 and 3 over only the pixels the bin hit.

// obs is one retained boundary observation: the point's coordinates (for
// the exact fix-up test) and its aggregated value. Bins hold observations,
// not point indices: with an out-of-core source the block a point came from
// may be evicted before the fix-up pass runs.
type obs struct {
	x, y, v float64
}

// targets is everything pass 1 writes: the per-aggregate textures and, in
// accurate mode, the boundary-pixel bins. The textures may cover only the
// canvas columns [x0, x0+count.W) — a shard's band — while slotOf always
// spans the whole canvas of width w.
type targets struct {
	w, x0 int
	// count is always present; at most one of sum/min/max is, by aggregate.
	count, sum, min, max *gpu.Texture
	// slotOf maps a canvas pixel index to its dense boundary-bin slot (-1
	// elsewhere), so the hot point loop pays one array lookup instead of a
	// map operation. nil in approximate mode.
	slotOf []int32
	bins   [][]obs
	// hit, when non-nil (a series tile), marks the pixels the pass shaded,
	// so resolveBin visits and clears only those: one bit per pixel, each
	// row starting on a fresh word of the hitStride words per row. A row's
	// words then have its DrawPointsParallel stripe owner as their only
	// writer, which keeps the marks race-free.
	hit       []uint64
	hitStride int
}

// newTargets allocates the texture set for agg over bandW×h pixels through
// alloc (the device pool for a canvas tile, plain allocation for a shard's
// band, which outlives no pool discipline) and empty bins for nslots
// boundary pixels.
func newTargets(agg Agg, w, x0, bandW, h int, slotOf []int32, nslots int,
	alloc func(w, h int) *gpu.Texture) targets {

	t := targets{w: w, x0: x0, count: alloc(bandW, h), slotOf: slotOf}
	switch agg {
	case Sum, Avg:
		t.sum = alloc(bandW, h)
	case Min:
		t.min = alloc(bandW, h)
		t.min.Fill(math.Inf(1))
	case Max:
		t.max = alloc(bandW, h)
		t.max.Fill(math.Inf(-1))
	}
	if slotOf != nil {
		t.bins = make([][]obs, nslots)
	}
	return t
}

// shade is the pass-1 fragment fold: one point with world position (x, y)
// and aggregated value v landing in canvas pixel (px, py). Every points-first
// path — local draws, straddle replay, shard bands — folds through here, so
// each pixel sees the same operations in the same order on all of them.
func (t *targets) shade(px, py int, x, y, v float64) {
	bx := px - t.x0
	if t.hit != nil {
		t.hit[py*t.hitStride+px>>6] |= 1 << uint(px&63)
	}
	t.count.Add(bx, py, 1)
	switch {
	case t.sum != nil:
		t.sum.Add(bx, py, v)
	case t.min != nil:
		t.min.TakeMin(bx, py, v)
	case t.max != nil:
		t.max.TakeMax(bx, py, v)
	}
	if t.slotOf != nil {
		if s := t.slotOf[py*t.w+px]; s >= 0 {
			t.bins[s] = append(t.bins[s], obs{x: x, y: y, v: v})
		}
	}
}

// tile is the points-first state of one canvas pass: the pass-1 targets
// plus the polygon side passes 2 and 3 replay — compiled spans and, in
// accurate mode, each region's boundary pixels.
type tile struct {
	targets
	r       *RasterJoin
	c       *gpu.Canvas
	regions *data.RegionSet
	// sp is nil when the span cache is disabled — every region draw then
	// falls back to direct scanline rasterization, which visits identical
	// pixels.
	sp           *raster.RegionSpans
	regionPixels [][]int32
}

// newTile prepares a canvas for the points-first passes: compiled region
// spans (cache hit or one-time compile), the accurate-mode outline pass, and
// the texture set from the device pool. Callers pair it with a deferred
// release, which runs on every exit path including cancellation.
func (r *RasterJoin) newTile(ctx context.Context, c *gpu.Canvas, regions *data.RegionSet, agg Agg) (*tile, error) {
	sp, err := r.cachedSpans(ctx, regions, c.T)
	if err != nil {
		return nil, err
	}
	t := &tile{r: r, c: c, regions: regions, sp: sp}
	var slotOf []int32
	var nslots int
	if r.mode == Accurate {
		// Outline pass first — point binning needs to know which pixels are
		// boundary pixels for some region.
		slotOf, nslots, t.regionPixels = r.boundarySlots(c, regions, sp)
	}
	t.targets = newTargets(agg, c.T.W, 0, c.T.W, c.T.H, slotOf, nslots, r.dev.AcquireTexture)
	return t, nil
}

// release returns the tile's textures to the device pool.
func (t *tile) release() {
	for _, tex := range []*gpu.Texture{t.count, t.sum, t.min, t.max} {
		t.r.dev.ReleaseTexture(tex)
	}
}

// drawScan is pass 1 over a compiled scan: the surviving pieces of [lo, hi)
// are drawn batch by batch on the sharded point pass and folded by shade.
func (t *tile) drawScan(ctx context.Context, sc *Scan, lo, hi, attrIdx int) error {
	return sc.pieces(ctx, lo, hi, func(blk *data.Block, plo, phi int, needPred bool) error {
		base := blk.Base
		var attr []float64
		if attrIdx >= 0 {
			attr = blk.Attr[attrIdx]
		}
		return t.r.drawPoints(ctx, t.c, t.r.pointWorkers, plo, phi,
			func(i int) (float64, float64) { j := i - base; return blk.X[j], blk.Y[j] },
			func(px, py, i int) {
				if needPred && !sc.pred(blk, i) {
					return // fragment discarded by the filter condition
				}
				j := i - base
				var v float64
				if attr != nil {
					v = attr[j]
				}
				t.shade(px, py, blk.X[j], blk.Y[j], v)
			})
	})
}

// resolve runs passes 2 and 3 over finished pass-1 targets, merging each
// region's aggregate into stats[k]: per-region accumulation, parallel across
// regions, plus the accurate-mode boundary fix-up from the point bins.
//
// Race audit (sharedwrite-clean): parallelRegionsCtx hands each region
// index k to exactly one goroutine, so stats[k] has a single writer; the
// textures, bins, slotOf and regionPixels are frozen after pass 1 and only
// read here. Scratch bitmaps are pooled and returned clean.
func (t *tile) resolve(ctx context.Context, stats []RegionStat) error {
	w, h := t.c.T.W, t.c.T.H
	var pool sync.Pool
	pool.New = func() any { return raster.NewBitmap(w, h) }
	regions := t.regions.Regions
	// Locals, not fields of t: the fragment shader below runs once per
	// covered pixel.
	count, sum, lo, hi := t.count, t.sum, t.min, t.max
	return t.r.parallelRegionsCtx(ctx, len(regions), func(k int) {
		var local RegionStat
		var scratch *raster.Bitmap
		if t.slotOf != nil {
			scratch = pool.Get().(*raster.Bitmap)
			for _, idx := range t.regionPixels[k] {
				scratch.Set(int(idx)%w, int(idx)/w)
			}
		}
		drawRegion(t.c, t.sp, regions[k].Poly, k, func(px, py int) {
			if scratch != nil && scratch.Get(px, py) {
				return // boundary fragment: resolved exactly by fixup
			}
			v := count.At(px, py)
			if v == 0 {
				return
			}
			pixel := RegionStat{Count: int64(v)}
			switch {
			case sum != nil:
				pixel.Sum = sum.At(px, py)
			case lo != nil:
				m := lo.At(px, py)
				pixel.Min, pixel.Max = m, m
			case hi != nil:
				m := hi.At(px, py)
				pixel.Min, pixel.Max = m, m
			}
			local.Merge(pixel)
		})
		if scratch != nil {
			for _, idx := range t.regionPixels[k] {
				scratch.Unset(int(idx)%w, int(idx)/w)
			}
			pool.Put(scratch)
			for _, idx := range t.regionPixels[k] {
				t.fixup(k, idx, &local)
			}
		}
		stats[k].Merge(local)
	})
}

// parallelRegionsCtx fans region indices [0,n) across the joiner's workers,
// checking the context between region claims: a canceled request stops
// handing out work and returns ctx.Err() once the in-flight regions drain.
//
// Race audit (sharedwrite-clean): k comes from an atomic cursor, so each
// index is claimed by exactly one goroutine; fn must only write state
// owned by region k (the callers write stats[k]), which partitions every
// write. wg.Wait() sequences the caller's reads after all writes.
func (r *RasterJoin) parallelRegionsCtx(ctx context.Context, n int, fn func(k int)) error {
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(k)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// fixup is pass 3 for idx, one of region k's own boundary pixels: every
// observation binned there takes the exact point-in-polygon test and, when
// inside, folds into local. resolve runs it over the region's boundary
// pixels in order, resolveBin over the ones the bin's points reached.
func (t *tile) fixup(k int, idx int32, local *RegionStat) {
	bin := t.bins[t.slotOf[idx]]
	if len(bin) == 0 {
		return
	}
	poly := t.regions.Regions[k].Poly
	for _, o := range bin {
		if !poly.Contains(geom.Point{X: o.x, Y: o.y}) {
			continue
		}
		switch {
		case t.min != nil || t.max != nil:
			local.Observe(o.v)
		case t.sum != nil:
			local.Count++
			//lint:ignore floataccum boundary fix-up over one pixel's point bin; dozens of terms at most
			local.Sum += o.v
		default:
			local.Count++
		}
	}
}

// boundarySlots runs the outline pass and numbers the boundary pixels:
// slotOf maps a boundary pixel's index to a dense slot in [0, nslots) (-1
// elsewhere), and regionPixels lists each region's own boundary pixels.
func (r *RasterJoin) boundarySlots(c *gpu.Canvas, regions *data.RegionSet, sp *raster.RegionSpans) (slotOf []int32, nslots int, regionPixels [][]int32) {
	boundaryList, regionPixels := r.outlinePass(c, regions, sp)
	slotOf = make([]int32, c.T.W*c.T.H)
	for i := range slotOf {
		slotOf[i] = -1
	}
	for s, idx := range boundaryList {
		slotOf[idx] = int32(s)
	}
	return slotOf, len(boundaryList), regionPixels
}
