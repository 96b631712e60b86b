package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/raster"
)

// ErrSeriesUnsupported is wrapped by SeriesJoinContext when the request has
// no single-tile series form: MIN/MAX aggregates, the ε mode, the
// polygons-first strategy, or a canvas larger than one device pass. Callers
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
// spanning [start, end) on one tile: the polygon side — compiled spans, in
// accurate mode the outline pass, and the banked interior — is prepared
// once, and each bin is one point pass over the (filtered) points of its
// window plus resolveBin, whose work scales with the pixels the bin's points
// touched rather than with the canvas. Every bin is bit-identical to a
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
	case r.strategy == PolygonsFirst:
		return nil, fmt.Errorf("%w: points-first strategy only", ErrSeriesUnsupported)
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
	t.hitStride = (c.T.W + 63) / 64
	t.hit = make([]uint64, t.hitStride*c.T.H)

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
		t.resolveBin(in, out.Stats[b])
	}
	return out, nil
}

// interior is the polygon side of a series tile, banked once per request
// so that each bin's passes 2 and 3 visit only what its points touched.
// This mirrors the paper's observation that the polygon side of the join is
// static across interactions: on the GPU the polygon pass's fragments are
// recomputed for free each frame, while the software device banks them.
//
// Pass 2 reads each region's fill pixels minus its own boundary pixels
// (which fixup resolves exactly) in draw order, and a region's fill is drawn
// row by row, left to right: ascending canvas index. So visiting the
// touched pixels in ascending index order and folding each into every
// region whose interior holds it replays each region's additions in the
// order resolve makes them. Pass 3 reads region k's boundary pixels in
// regionPixels order, which is not by index, so it numbers them instead.
type interior struct {
	// runs[rows[y]:rows[y+1]] are row y's interior runs by ascending x0:
	// one entry per run rather than one per canvas pixel. Overlapping
	// layers put several runs over one pixel.
	rows []int32
	runs []run
	// Boundary positions number the concatenated regionPixels:
	// bstart[k]..bstart[k+1] are region k's. Slot s's positions are a
	// chain, 1-based so that 0 ends it: slotHead[s], then slotNext[q-1]
	// after position q-1. bmarks is the per-bin bitmap over positions and
	// slots the bin's observed slots, both left clear by every walk. Nil
	// in approximate mode.
	bstart, slotHead, slotNext, slots []int32
	bmarks                            []uint64
}

// run is pixels [x0, x1) of one row in region k's interior. reach is the
// largest x1 of the row's runs up to this one, which bounds the backward
// scan of a lookup.
type run struct {
	x0, x1, reach, k int32
}

// interior banks the tile's regions for per-bin resolution, checking
// cancellation between polygons.
func (t *tile) interior(ctx context.Context) (*interior, error) {
	w, h := t.c.T.W, t.c.T.H
	in := &interior{}
	var own *raster.Bitmap
	if t.slotOf != nil {
		own = raster.NewBitmap(w, h)
	}
	// Runs in draw order first: each fill span cut at the region's own
	// boundary pixels, x0 and x1 as canvas indices. The cuts mostly trim
	// span ends, so there are about as many runs as spans.
	var drawn []run
	if t.sp != nil {
		n := 0
		//lint:ignore ctxpoll sums span counts to size a slice; nothing is drawn
		for k := range t.regions.Regions {
			n += len(t.sp.Fill(k))
		}
		drawn = make([]run, 0, n)
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
		fillSpans(t.c, t.sp, t.regions.Regions[k].Poly, k, func(py, x0, x1 int) {
			base := py * w
			for i, end := base+x0, base+x1; i < end; {
				cut := end
				if own != nil {
					cut = own.NextSet(i, end)
				}
				if cut > i {
					drawn = append(drawn, run{x0: int32(i), x1: int32(cut), k: int32(k)})
				}
				i = cut + 1
			}
		})
		if own != nil {
			for _, idx := range t.regionPixels[k] {
				own.Unset(int(idx)%w, int(idx)/w)
			}
		}
	}

	// Order the runs by row, then x0 — two stable counting sorts, column
	// first — make x0/x1 row-relative and fill in reach.
	byCol := make([]run, len(drawn))
	bucket(byCol, drawn, w, func(r run) int32 { return r.x0 % int32(w) })
	in.runs = drawn
	in.rows = bucket(in.runs, byCol, h, func(r run) int32 { return r.x0 / int32(w) })
	for y := 0; y < h; y++ {
		row := in.runs[in.rows[y]:in.rows[y+1]]
		off, reach := int32(y*w), int32(0)
		for i := range row {
			row[i].x0 -= off
			row[i].x1 -= off
			reach = max(reach, row[i].x1)
			row[i].reach = reach
		}
	}

	if t.slotOf != nil {
		// Boundary positions, chained per slot.
		in.bstart = make([]int32, len(t.regionPixels)+1)
		for k, pixels := range t.regionPixels {
			in.bstart[k+1] = in.bstart[k] + int32(len(pixels))
		}
		nb := in.bstart[len(t.regionPixels)]
		in.slotHead = make([]int32, len(t.bins))
		in.slotNext = make([]int32, nb)
		q := int32(0)
		for _, pixels := range t.regionPixels {
			for _, idx := range pixels {
				s := t.slotOf[idx]
				in.slotNext[q] = in.slotHead[s]
				in.slotHead[s] = q + 1
				q++
			}
		}
		in.bmarks = make([]uint64, (int(nb)+63)/64)
	}
	return in, nil
}

// bucket stably reorders src into dst by key, which lies in [0, n), and
// returns where each key's entries start (n+1 offsets).
func bucket(dst, src []run, n int, key func(run) int32) []int32 {
	start := make([]int32, n+1)
	for _, r := range src {
		start[key(r)+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	next := slices.Clone(start[:n])
	for _, r := range src {
		k := key(r)
		dst[next[k]] = r
		next[k]++
	}
	return start
}

// resolveBin is resolve for one bin of a series tile, over only the pixels
// the bin's point pass hit: pass 2 visits them in ascending canvas index —
// rows down, each row's hit words left to right — and folds each into the
// regions whose interior runs cover it; pass 3 walks the boundary positions
// whose slot received observations in ascending order. Both reproduce
// resolve's per-region order of float additions, and stats[k] accumulates
// from zero. Every hit pixel, slot and mark is cleared on the way for the
// next bin. The work is proportional to the hit pixels, plus one word test
// per 64 canvas pixels and per 64 boundary positions.
func (t *tile) resolveBin(in *interior, stats []RegionStat) {
	w, stride := t.c.T.W, t.hitStride
	count := t.count.Data
	var sum []float64
	if t.sum != nil {
		sum = t.sum.Data
	}
	slots := in.slots[:0]
	for y := 0; y < t.c.T.H; y++ {
		words := t.hit[y*stride : (y+1)*stride]
		row := in.runs[in.rows[y]:in.rows[y+1]]
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
				for step := 1; i < len(row) && row[i].x0 <= x; step <<= 1 {
					j := min(i+step, len(row))
					if row[j-1].x0 > x {
						i += sort.Search(j-1-i, func(n int) bool { return row[i+n].x0 > x })
						break
					}
					i = j
				}
				for j := i - 1; j >= 0 && row[j].reach > x; j-- {
					if row[j].x1 <= x {
						continue
					}
					s := &stats[row[j].k]
					s.Count += int64(count[idx])
					if sum != nil {
						s.Sum += sum[idx]
					}
				}
				count[idx] = 0
				if sum != nil {
					sum[idx] = 0
				}
				if t.slotOf == nil {
					continue
				}
				if s := t.slotOf[idx]; s >= 0 {
					slots = append(slots, s)
					for q := in.slotHead[s]; q != 0; q = in.slotNext[q-1] {
						in.bmarks[(q-1)>>6] |= 1 << uint((q-1)&63)
					}
				}
			}
		}
	}

	k := 0
	for wi, word := range in.bmarks {
		if word == 0 {
			continue
		}
		in.bmarks[wi] = 0
		for ; word != 0; word &= word - 1 {
			q := int32(wi<<6 | bits.TrailingZeros64(word))
			for q >= in.bstart[k+1] {
				k++
			}
			t.fixup(k, t.regionPixels[k][q-in.bstart[k]], &stats[k])
		}
	}
	for _, s := range slots {
		t.bins[s] = t.bins[s][:0]
	}
	in.slots = slots
}
