package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/raster"
)

// SeriesResult is the output of SeriesJoinContext: per-bin, per-region stats.
type SeriesResult struct {
	BinStarts []int64
	// Stats[b][k] is region k's aggregate in bin b.
	Stats [][]RegionStat
	// CanvasW, CanvasH and PixelSize describe the shared canvas.
	CanvasW, CanvasH int
	PixelSize        float64
}

// Value returns the aggregate for bin b, region k.
func (s *SeriesResult) Value(b, k int, agg Agg) float64 { return s.Stats[b][k].Value(agg) }

// SeriesJoinContext evaluates the request across consecutive time bins
// spanning [start, end) on one tile: the polygon side — compiled spans, in
// accurate mode the outline pass, and the banked interior fragments — is
// prepared once, and each bin is one point pass over the (filtered) points
// of its window plus one sweep. Results are identical to running bins
// separate joins at the same resolution and mode; the static polygon work is
// paid once instead of bins times. It requires the resolution-driven mode
// (no ε) and a canvas that fits one device pass.
//
// The request's own Time filter is ignored; the bin windows replace it.
// Cancellation is checked between time bins, between point batches and
// between region claims inside a bin, and the canvas and pooled textures are
// released on every exit path.
func (r *RasterJoin) SeriesJoinContext(ctx context.Context, req Request, start, end int64, bins int) (*SeriesResult, error) {
	if bins < 1 || end <= start {
		return nil, fmt.Errorf("core: series needs bins >= 1 and a non-empty range")
	}
	if req.Agg == Min || req.Agg == Max {
		return nil, fmt.Errorf("core: series join supports COUNT/SUM/AVG, not %v", req.Agg)
	}
	if r.epsilon > 0 {
		return nil, fmt.Errorf("core: series join requires resolution mode, not ε")
	}
	req.Time = nil
	if err := req.Validate(); err != nil {
		return nil, err
	}
	src := req.Data()
	if !src.HasTime() {
		return nil, fmt.Errorf("core: series over point set %q without timestamps", src.Name())
	}

	out := &SeriesResult{
		BinStarts: make([]int64, bins),
		Stats:     make([][]RegionStat, bins),
	}
	width := (end - start) / int64(bins)
	if width < 1 {
		width = 1
	}
	for b := 0; b < bins; b++ {
		out.BinStarts[b] = start + int64(b)*width
		out.Stats[b] = make([]RegionStat, req.Regions.Len())
	}
	window := req.Regions.Bounds()
	if window.IsEmpty() {
		return out, nil
	}
	full := r.fullTransform(window)
	c, err := r.dev.NewCanvas(full.World, full.W, full.H)
	if err != nil {
		return nil, fmt.Errorf("core: series join: %w (reduce the resolution)", err)
	}
	defer c.Release()
	out.CanvasW, out.CanvasH = c.T.W, c.T.H
	out.PixelSize = c.T.PixelWidth()
	if src.Len() == 0 {
		return out, nil
	}

	// The base scan carries the attribute filters; each bin re-aims its
	// time bounds below (range narrowing when sorted, residual predicate
	// otherwise). Bins run sequentially, so mutating the scan is safe.
	sc, err := r.newScan(req)
	if err != nil {
		return nil, err
	}
	sc.setWorld(c.T.World)
	attrIdx := -1
	if req.Agg.NeedsAttr() {
		attrIdx = data.AttrIndex(src, req.Attr)
	}
	t, err := r.newTile(ctx, c, req.Regions, req.Agg)
	if err != nil {
		return nil, err
	}
	defer t.release()
	in, err := t.interior(ctx)
	if err != nil {
		return nil, err
	}

	sorted := src.TimeSorted()
	for b := 0; b < bins; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		binStart := out.BinStarts[b]
		binEnd := binStart + width
		if b == bins-1 {
			binEnd = end
		}
		t.reset()
		lo, hi := 0, src.Len()
		if sorted {
			if lo, hi, err = sourceTimeWindow(src, binStart, binEnd); err != nil {
				return nil, err
			}
			sc.res.hasTime = false
		} else {
			sc.res.hasTime = true
			sc.res.tStart, sc.res.tEnd = binStart, binEnd
		}
		if err := t.drawScan(ctx, sc, lo, hi, attrIdx); err != nil {
			return nil, err
		}
		if err := t.sweep(ctx, in, out.Stats[b]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// interior banks, per region, the pixels pass 2 reads — the region's fill
// fragments minus its own boundary pixels, which fixup resolves exactly — in
// CSR form, so a sweep of queries over the same tile (the exploration view's
// time bins) pays the polygon rasterization once. This mirrors the paper's
// observation that the polygon side of the join is static across
// interactions: on the GPU the polygon pass's fragments are recomputed for
// free each frame, while the software device banks them.
type interior struct {
	// frags[start[k]:start[k+1]] are region k's pixel indices, in draw order.
	start, frags []int32
}

// interior rasterizes the tile's regions once into their banked form,
// checking cancellation between polygons.
func (t *tile) interior(ctx context.Context) (*interior, error) {
	w := t.c.T.W
	in := &interior{start: make([]int32, t.regions.Len()+1)}
	var own *raster.Bitmap
	if t.slotOf != nil {
		own = raster.NewBitmap(w, t.c.T.H)
	}
	for k := range t.regions.Regions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if own != nil {
			for _, idx := range t.regionPixels[k] {
				own.Set(int(idx)%w, int(idx)/w)
			}
		}
		drawRegion(t.c, t.sp, t.regions.Regions[k].Poly, k, func(px, py int) {
			if own == nil || !own.Get(px, py) {
				in.frags = append(in.frags, int32(py*w+px))
			}
		})
		if own != nil {
			for _, idx := range t.regionPixels[k] {
				own.Unset(int(idx)%w, int(idx)/w)
			}
		}
		in.start[k+1] = int32(len(in.frags))
	}
	return in, nil
}

// sweep is resolve over banked fragments: pass 2 reads each region's
// interior pixels straight from the COUNT/SUM textures, pass 3 is the shared
// fixup, and stats[k] is overwritten. It is the one variant of passes 2/3
// kept beside resolve — on the exploration view's traffic the per-bin region
// draw of resolve measured a quarter slower (DESIGN.md, "One points-first
// pipeline").
func (t *tile) sweep(ctx context.Context, in *interior, stats []RegionStat) error {
	return t.r.parallelRegionsCtx(ctx, t.regions.Len(), func(k int) {
		var local RegionStat
		for _, idx := range in.frags[in.start[k]:in.start[k+1]] {
			v := t.count.Data[idx]
			if v == 0 {
				continue
			}
			local.Count += int64(v)
			if t.sum != nil {
				//lint:ignore floataccum per-fragment hot loop mirroring GPU additive blending; trip count bounded by region pixels
				local.Sum += t.sum.Data[idx]
			}
		}
		if t.slotOf != nil {
			t.fixup(k, &local)
		}
		stats[k] = local
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
