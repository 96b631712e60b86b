package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/raster"
	"repro/internal/trace"
)

// ErrSeriesUnsupported is wrapped by SeriesJoinContext when the request has
// no single-tile series form: MIN/MAX aggregates, the ε mode, or a canvas
// larger than one device pass. Callers
// run one JoinContext per bin instead.
var ErrSeriesUnsupported = errors.New("core: series join unsupported")

// SeriesResult is the output of SeriesJoinContext: per-bin, per-region stats.
type SeriesResult struct {
	BinStarts []int64
	// Stats[b][k] is region k's aggregate in bin b.
	Stats [][]RegionStat
	// Algorithm, CanvasW, CanvasH, Tiles and PixelSize are the metadata a
	// JoinContext over any one bin reports: the shared canvas, or zeros
	// (Algorithm aside) when the layer or the data set is empty.
	Algorithm        string
	CanvasW, CanvasH int
	Tiles            int
	PixelSize        float64
}

// Value returns the aggregate for bin b, region k.
func (s *SeriesResult) Value(b, k int, agg Agg) float64 { return s.Stats[b][k].Value(agg) }

// Bin returns bin b as the Result a JoinContext over the bin's window
// returns, metadata included. Stats is shared with the series.
func (s *SeriesResult) Bin(b int) *Result {
	return &Result{
		Stats:     s.Stats[b],
		Algorithm: s.Algorithm,
		CanvasW:   s.CanvasW, CanvasH: s.CanvasH,
		Tiles: s.Tiles, PixelSize: s.PixelSize,
	}
}

// SeriesJoinContext evaluates the request across consecutive time bins
// spanning [start, end) on one tile: the polygon side — the compiled layer
// from the span cache — is prepared once, and each bin is one point pass
// over the (filtered) points of its window plus resolveBin, whose work
// scales with the pixels the bin's points touched rather than with the
// canvas. Every bin is bit-identical to a
// JoinContext over its window at the same resolution and mode; the static
// polygon work is paid once instead of bins times. Requests without that
// form fail with ErrSeriesUnsupported.
//
// The request's own Time filter is ignored; the bin windows replace it. The
// `core.join` fault site fires once per series. Cancellation is checked
// between time bins and between point batches, and the canvas and pooled
// textures are released on every exit path.
func (r *RasterJoin) SeriesJoinContext(ctx context.Context, req Request, start, end int64, bins int) (*SeriesResult, error) {
	if bins < 1 || end <= start {
		return nil, fmt.Errorf("core: series needs bins >= 1 and a non-empty range")
	}
	switch {
	case req.Agg == Min || req.Agg == Max:
		return nil, fmt.Errorf("%w: COUNT/SUM/AVG only, not %v", ErrSeriesUnsupported, req.Agg)
	case r.epsilon > 0:
		return nil, fmt.Errorf("%w: needs resolution mode, not ε", ErrSeriesUnsupported)
	}
	req.Time = nil
	if err := req.Validate(); err != nil {
		return nil, err
	}
	src := req.Data()
	if !src.HasTime() {
		return nil, fmt.Errorf("core: series over point set %q without timestamps", src.Name())
	}
	if err := fault.Inject(ctx, "core.join"); err != nil {
		return nil, err
	}

	out := &SeriesResult{
		BinStarts: make([]int64, bins),
		Stats:     make([][]RegionStat, bins),
		Algorithm: r.Name(),
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
	if window.IsEmpty() || src.Len() == 0 {
		return out, nil
	}
	full := r.fullTransform(window)
	c, err := r.dev.NewCanvas(full.World, full.W, full.H)
	if err != nil {
		return nil, fmt.Errorf("%w: %v (reduce the resolution)", ErrSeriesUnsupported, err)
	}
	defer c.Release()
	out.CanvasW, out.CanvasH, out.Tiles = full.W, full.H, 1
	out.PixelSize = full.PixelWidth()

	// The base scan carries the attribute filters; each bin re-aims its
	// time bounds below (range narrowing when sorted, residual predicate
	// otherwise). Bins run sequentially, so mutating the scan is safe.
	sc, err := r.newScan(req)
	if err != nil {
		return nil, err
	}
	sc.setWorld(c.T.World)
	sorted := src.TimeSorted()
	sc.cols.T = !sorted // the bins' residual time predicate
	attrIdx := -1
	if req.Agg.NeedsAttr() {
		attrIdx = data.AttrIndex(src, req.Attr)
	}
	t, err := r.newTile(ctx, c, req.Regions, req.Agg)
	if err != nil {
		return nil, err
	}
	defer t.release()
	t.hit = raster.NewBitmap(c.T.W, c.T.H)
	var runs raster.RowRuns
	var slots raster.SlotIndex
	var marks []uint64
	if t.mask != nil {
		runs, slots = t.sp.InteriorRows(), t.sp.SlotIndex()
		marks = make([]uint64, (t.sp.BoundaryOffset(req.Regions.Len())+63)/64)
	} else {
		runs = t.sp.FillRows()
	}
	var nobs, tests int64

	for b := 0; b < bins; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		binStart := out.BinStarts[b]
		binEnd := binStart + width
		if b == bins-1 {
			binEnd = end
		}
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
		n, e := t.resolveBin(runs, slots, marks, out.Stats[b])
		nobs += n
		tests += e
	}
	if t.mask != nil {
		tr := trace.FromContext(ctx)
		tr.Count("boundary_obs", nobs)
		tr.Count("refine_edge_tests", tests)
	}
	return out, nil
}

// resolveBin is resolve for one bin of a series tile, over only the pixels
// the bin's point pass hit. Pass 2 visits them in ascending canvas index —
// rows down, each row's hit words left to right — and folds each into the
// regions whose runs cover it: the interior runs in accurate mode, the fill
// runs in approximate mode. A region's runs are drawn row by row, left to
// right, so every region sees its additions in resolve's order. Pass 3 bins
// the boundary observations, marks every position of the observed slots in
// marks — a bitmap over the concatenated Boundary lists — and calls fixup
// on them in ascending position, which is each region's Boundary order.
// stats[k] accumulates from zero. Every hit pixel, bin and mark is cleared
// on the way for the next bin. The work is proportional to the hit pixels
// and the observations, plus one word test per 64 canvas pixels and per 64
// boundary positions. It returns the observations binned and the edge
// crossing tests made.
func (t *tile) resolveBin(runs raster.RowRuns, slots raster.SlotIndex, marks []uint64, stats []RegionStat) (nobs, tests int64) {
	w := t.c.T.W
	count := t.count.Data
	var sum []float64
	if t.sum != nil {
		sum = t.sum.Data
	}
	for y := 0; y < t.c.T.H; y++ {
		words := t.hit.Row(y)
		row := runs.Row(y)
		i := 0
		for wi, word := range words {
			if word == 0 {
				continue
			}
			words[wi] = 0
			for ; word != 0; word &= word - 1 {
				x := int32(wi<<6 | bits.TrailingZeros64(word))
				idx := y*w + int(x)
				// i becomes the number of the row's runs starting at or left
				// of x, galloping on from the previous hit.
				for step := 1; i < len(row) && row[i].X0 <= x; step <<= 1 {
					j := min(i+step, len(row))
					if row[j-1].X0 > x {
						i += sort.Search(j-1-i, func(n int) bool { return row[i+n].X0 > x })
						break
					}
					i = j
				}
				for j := i - 1; j >= 0 && row[j].Reach > x; j-- {
					if row[j].X1 <= x {
						continue
					}
					s := &stats[row[j].K]
					s.Count += int64(count[idx])
					if sum != nil {
						s.Sum += sum[idx]
					}
				}
				count[idx] = 0
				if sum != nil {
					sum[idx] = 0
				}
			}
		}
	}
	if t.mask == nil {
		return 0, 0
	}

	nobs = int64(t.collect(t.rows, t.sp))
	for _, s := range t.touched {
		for _, q := range slots.Positions(s) {
			marks[q>>6] |= 1 << uint(q&63)
		}
	}
	k := 0
	for wi, word := range marks {
		if word == 0 {
			continue
		}
		marks[wi] = 0
		for ; word != 0; word &= word - 1 {
			q := int32(wi<<6 | bits.TrailingZeros64(word))
			for q >= t.sp.BoundaryOffset(k+1) {
				k++
			}
			i := q - t.sp.BoundaryOffset(k)
			tests += t.fixup(k, t.sp.Boundary(k)[i], t.sp.BoundarySlots(k)[i], &stats[k])
		}
	}
	t.clear(t.rows)
	return nobs, tests
}
