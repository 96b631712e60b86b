package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/raster"
	"repro/internal/trace"
)

// SeriesJoinContext evaluates the request across consecutive time bins
// spanning [start, end) and returns one Result per bin: bin b is exactly
// the Result a JoinContext over the bin's window returns, metadata
// included, for every aggregate, mode and canvas. It runs on the join's
// tile loop. Each canvas tile prepares its polygon side — the compiled
// layer from the span cache — once, and each bin is one point pass over the
// (filtered) points of its window plus resolveBin, whose work scales with
// the pixels the bin's points touched rather than with the canvas. A bin
// folds each tile into a zeroed scratch that is then merged into the bin's
// stats, as resolve merges its per-tile stats, so a canvas tiled into
// several passes — the ε mode's or one larger than the device — gives every
// bin the bits JoinContext gives it. The static polygon work is paid once
// per tile instead of bins times.
//
// Bins split the range evenly, the last one taking the remainder; more bins
// than seconds in the range is an error, as the later bins would lie past
// end. The request's own Time filter is ignored; the bin windows replace
// it. The `core.join` fault site fires once per series. Cancellation is
// checked between canvas tiles, time bins and point batches, and the canvas
// and pooled textures are released on every exit path.
func (r *RasterJoin) SeriesJoinContext(ctx context.Context, req Request, start, end int64, bins int) ([]*Result, error) {
	if bins < 1 || int64(bins) > end-start {
		return nil, fmt.Errorf("core: series needs 1 <= bins <= end-start, got %d bins over [%d,%d)", bins, start, end)
	}
	width := (end - start) / int64(bins)
	// The whole range stands in for the request's window: Validate then
	// requires timestamps, and each bin re-aims the scan at its own window.
	req.Time = &TimeFilter{Start: start, End: end}
	return r.tileLoop(ctx, req, bins, true, func(t *tile, sc *Scan, attrIdx int, out []*Result) error {
		t.hit = raster.NewBitmap(t.c.T.W, t.c.T.H)
		var runs raster.RowRuns
		var slots raster.SlotIndex
		var marks []uint64
		if t.mask != nil {
			runs, slots = t.sp.InteriorRows(), t.sp.SlotIndex()
			marks = make([]uint64, (t.sp.BoundaryOffset(t.sp.Regions())+63)/64)
		} else {
			runs = t.sp.FillRows()
		}
		local := make([]RegionStat, t.sp.Regions())
		var nobs, tests int64
		for b, res := range out {
			if err := ctx.Err(); err != nil {
				return err
			}
			binStart := start + int64(b)*width
			binEnd := binStart + width
			if b == bins-1 {
				binEnd = end
			}
			if err := sc.setTime(binStart, binEnd); err != nil {
				return err
			}
			if err := t.drawScan(ctx, sc, sc.Lo, sc.Hi, attrIdx); err != nil {
				return err
			}
			n, e := t.resolveBin(runs, slots, marks, local)
			nobs += n
			tests += e
			for k := range local {
				res.Stats[k].Merge(local[k])
				local[k] = RegionStat{}
			}
		}
		if t.mask != nil {
			tr := trace.FromContext(ctx)
			tr.Count("boundary_obs", nobs)
			tr.Count("refine_edge_tests", tests)
		}
		return nil
	})
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
	// A pixel folds its count and its sum, or — for MIN/MAX — merges its
	// count with its extremum texel as both Min and Max, the stat foldSpans
	// merges; clearing restores the texel to the blend's ±Inf identity.
	var sum, ext []float64
	var identity float64
	switch {
	case t.sum != nil:
		sum = t.sum.Data
	case t.min != nil:
		ext, identity = t.min.Data, math.Inf(1)
	case t.max != nil:
		ext, identity = t.max.Data, math.Inf(-1)
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
					if ext != nil {
						s.Merge(RegionStat{Count: int64(count[idx]), Min: ext[idx], Max: ext[idx]})
						continue
					}
					s.Count += int64(count[idx])
					if sum != nil {
						s.Sum += sum[idx]
					}
				}
				count[idx] = 0
				if sum != nil {
					sum[idx] = 0
				}
				if ext != nil {
					ext[idx] = identity
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
