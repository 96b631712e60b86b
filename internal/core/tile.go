package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/raster"
	"repro/internal/trace"
)

// This file is the paper's points-first drawing pipeline, written once:
//
//  1. Point pass — filtered points are drawn with additive blending into a
//     per-pixel count texture and, by aggregate, a sum texture (SUM/AVG) or
//     a min/max texture (the MIN/MAX blend equations over ±Inf).
//  2. Polygon pass — each region is drawn; every covered fragment folds the
//     point textures into the region's accumulator.
//  3. (Accurate only) Exact pass — pass 2 draws each region's interior,
//     its fill minus its own boundary pixels, and the points that pass 1
//     binned in those boundary pixels take exact point-in-polygon tests
//     against the region's edges in their row.
//
// The polygon side of all three — spans, boundary mask and slots, interior
// runs, row-edge tables — is one raster.RegionSpans from the span cache.
// JoinContext, the scatter-gather gather and SeriesJoinContext all run on
// this tile, through one tile loop (tileLoop); a shard's partial pass runs
// on the bare targets. A series tile resolves each bin with resolveBin
// (series.go), passes 2 and 3 over only the pixels the bin hit.

// obs is one retained boundary observation: the point's coordinates (for
// the exact fix-up test), its aggregated value, the pixel column it landed
// in and, once binned, its boundary slot. Bins hold observations, not point
// indices: with an out-of-core source the block a point came from may be
// evicted before the fix-up pass runs.
type obs struct {
	x, y, v  float64
	px, slot int32
}

// targets is everything pass 1 writes: the per-aggregate textures and, in
// accurate mode, the boundary observations. The textures may cover only the
// canvas columns [x0, x0+count.W) — a shard's band — while mask and rows
// always span the whole canvas.
type targets struct {
	x0 int
	// count is always present; at most one of sum/min/max is, by aggregate.
	count, sum, min, max *gpu.Texture
	// mask marks the boundary pixels (nil in approximate mode); a point
	// landing in one is appended to its row's list, rows[py], so each
	// pixel's observations keep point order.
	mask *raster.Bitmap
	rows [][]obs
	// hit, when non-nil (a series tile), marks the pixels the pass shaded,
	// so resolveBin visits and clears only those.
	hit *raster.Bitmap
	// straddle, on a shard's band, marks the canvas columns that hold a
	// shard cut: points landing there are not folded but kept raw in frags,
	// in point order, for the coordinator to replay (see shardpass.go).
	straddle []bool
	frags    []shardFrag
}

// newTargets allocates the texture set for agg over bandW×h pixels through
// alloc (the device pool for a canvas tile, plain allocation for a shard's
// band, which outlives no pool discipline) and, given a boundary mask,
// empty per-row observation lists.
func newTargets(agg Agg, x0, bandW, h int, mask *raster.Bitmap,
	alloc func(w, h int) *gpu.Texture) targets {

	t := targets{x0: x0, count: alloc(bandW, h), mask: mask}
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
	if mask != nil {
		t.rows = make([][]obs, h)
	}
	return t
}

// chunkSize is the number of points pass 1 maps before it folds them. A
// chunk's per-point arrays — texel index, pixel and offset, 16 bytes a
// point — live on the stack.
const chunkSize = 512

// mapped lists points pass 1 folds, in point order: point q landed in
// canvas pixel (px[q], py[q]), which is texel idx[q] of the targets'
// textures, and is element off[q] of the coordinate and value slices it is
// folded with. The four slices have one length.
type mapped struct {
	idx, px, py, off []int32
}

// blend folds pts into the targets, one loop per target, each in point
// order: the count, the aggregate's value (sum, min or max) read from vs,
// the series hit bitmap, and the boundary mask, whose points append their
// coordinates and value to their row's observation list. vs nil folds value
// 0. Every points-first path — local draws, straddle replay, shard bands —
// folds through here, so each pixel and each row list sees the same
// operations in the same order on all of them.
func (t *targets) blend(pts mapped, xs, ys, vs []float64) {
	idx := pts.idx
	off := pts.off[:len(idx)]
	count := t.count
	for _, i := range idx {
		count.AddAt(int(i), 1)
	}
	switch {
	case t.sum != nil:
		sum := t.sum
		for q, i := range idx {
			sum.AddAt(int(i), vs[off[q]])
		}
	case t.min != nil:
		lo := t.min
		for q, i := range idx {
			lo.TakeMinAt(int(i), vs[off[q]])
		}
	case t.max != nil:
		hi := t.max
		for q, i := range idx {
			hi.TakeMaxAt(int(i), vs[off[q]])
		}
	}
	px, py := pts.px[:len(idx)], pts.py[:len(idx)]
	if hit := t.hit; hit != nil {
		for q, x := range px {
			hit.Set(int(x), int(py[q]))
		}
	}
	if mask := t.mask; mask != nil {
		for q, x := range px {
			y := int(py[q])
			if !mask.Get(int(x), y) {
				continue
			}
			k := off[q]
			var v float64
			if vs != nil {
				v = vs[k]
			}
			t.rows[y] = append(t.rows[y], obs{x: xs[k], y: ys[k], v: v, px: x})
		}
	}
}

// shade is the pass-1 fragment fold of one point with world position (x, y)
// and aggregated value v landing in canvas pixel (px, py): blend over a
// single point. The scatter-gather replays straddle fragments through it.
func (t *targets) shade(px, py int, x, y, v float64) {
	t.blend(mapped{
		idx: []int32{int32(py*t.count.W + px - t.x0)},
		px:  []int32{int32(px)},
		py:  []int32{int32(py)},
		off: []int32{0},
	}, []float64{x}, []float64{y}, []float64{v})
}

// tile is the points-first state of one canvas pass: the pass-1 targets
// plus the compiled polygon side passes 2 and 3 replay, and the slot-keyed
// bins pass 3 reads.
type tile struct {
	targets
	r  *RasterJoin
	c  *gpu.Canvas
	sp *raster.RegionSpans
	bins
}

// newTile prepares a canvas for the points-first passes: the compiled
// region layer (cache hit or one-time compile) and the texture set from the
// device pool. Callers pair it with a deferred release, which runs on every
// exit path including cancellation.
func (r *RasterJoin) newTile(ctx context.Context, c *gpu.Canvas, regions *data.RegionSet, agg Agg) (*tile, error) {
	sp, err := r.CompiledSpans(ctx, regions, c.T)
	if err != nil {
		return nil, err
	}
	t := &tile{r: r, c: c, sp: sp}
	var mask *raster.Bitmap
	if r.mode == Accurate {
		mask = sp.Mask()
	}
	t.targets = newTargets(agg, 0, c.T.W, c.T.H, mask, r.dev.AcquireTexture)
	if mask != nil {
		t.bins = bins{n: make([]int32, sp.Slots()), end: make([]int32, sp.Slots())}
	}
	return t, nil
}

// release returns the tile's textures to the device pool.
func (t *tile) release() {
	for _, tex := range []*gpu.Texture{t.count, t.sum, t.min, t.max} {
		t.r.dev.ReleaseTexture(tex)
	}
}

// fold is pass 1 over points [lo, hi) of blk, chunkSize points at a time.
// Each chunk is mapped through m, keeping the points inside the window;
// then — where needPred — compacted to the points that pass sc's residual
// predicate and, on an owned scan, lie in the scan's x range; then cleared
// of points on straddle columns, which are kept raw in frags; and the rest
// blended, with values from attr (0 when attr is nil). Every step keeps
// point order.
func (t *targets) fold(m *raster.PixelMap, sc *Scan, blk *data.Block, attr []float64,
	lo, hi int, needPred bool) {

	var idx, pxs, pys, off [chunkSize]int32
	bandW, x0 := t.count.W, t.x0
	straddle := t.straddle
	for s := lo; s < hi; s += chunkSize {
		j0, j1 := s-blk.Base, min(s+chunkSize, hi)-blk.Base
		xs, ys := blk.X[j0:j1], blk.Y[j0:j1]
		ys = ys[:len(xs)]
		var vs []float64
		if attr != nil {
			vs = attr[j0:j1]
		}
		n := 0
		for k, x := range xs {
			px, py, ok := m.Map(x, ys[k])
			if !ok {
				continue
			}
			idx[n], pxs[n], pys[n], off[n] = int32(py*bandW+px-x0), int32(px), int32(py), int32(k)
			n++
		}
		if needPred {
			j := 0
			for q := 0; q < n; q++ {
				k := int(off[q])
				if sc.owned && !sc.owns(xs[k]) || !sc.pred(blk, s+k) {
					continue // another shard owns the point, or the filter drops it
				}
				idx[j], pxs[j], pys[j], off[j] = idx[q], pxs[q], pys[q], off[q]
				j++
			}
			n = j
		}
		if straddle != nil {
			j := 0
			for q := 0; q < n; q++ {
				if straddle[pxs[q]] {
					k := off[q]
					var v float64
					if vs != nil {
						v = vs[k]
					}
					t.frags = append(t.frags, shardFrag{idx: int64(s) + int64(k), px: pxs[q], py: pys[q],
						obs: obs{x: xs[k], y: ys[k], v: v}})
					continue
				}
				idx[j], pxs[j], pys[j], off[j] = idx[q], pxs[q], pys[q], off[q]
				j++
			}
			n = j
		}
		t.blend(mapped{idx: idx[:n], px: pxs[:n], py: pys[:n], off: off[:n]}, xs, ys, vs)
	}
}

// batched runs fold over the surviving pieces of sc's [lo, hi) in batches
// of at most pointBatch points: the context and the `core.pointpass` fault
// site are polled once per batch — the batch size is the cancellation
// granularity of the point pass — and each batch increments the request
// trace's counter.
func (r *RasterJoin) batched(ctx context.Context, sc *Scan, lo, hi int, counter string,
	fold func(blk *data.Block, s, e int, needPred bool)) error {

	tr := trace.FromContext(ctx)
	return sc.pieces(ctx, lo, hi, func(blk *data.Block, plo, phi int, needPred bool) error {
		batch := r.pointBatch
		if batch <= 0 {
			batch = phi - plo
		}
		for s := plo; s < phi; s += batch {
			if err := fault.Inject(ctx, "core.pointpass"); err != nil {
				return err
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			fold(blk, s, min(s+batch, phi), needPred)
			tr.Count(counter, 1)
		}
		return nil
	})
}

// pass1 folds the surviving pieces of sc's [lo, hi) into t, mapped through
// m, batched. It runs on the calling goroutine: once mapping a point is a
// few instructions, a striped fan-out costs more in staged fragments than a
// second core returns.
func (r *RasterJoin) pass1(ctx context.Context, t *targets, m raster.PixelMap,
	sc *Scan, lo, hi, attrIdx int, counter string) error {

	return r.batched(ctx, sc, lo, hi, counter, func(blk *data.Block, s, e int, needPred bool) {
		var attr []float64
		if attrIdx >= 0 {
			attr = blk.Attr[attrIdx]
		}
		t.fold(&m, sc, blk, attr, s, e, needPred)
	})
}

// drawScan is pass 1 of a canvas tile over a compiled scan.
func (t *tile) drawScan(ctx context.Context, sc *Scan, lo, hi, attrIdx int) error {
	return t.r.pass1(ctx, &t.targets, t.c.PixelMap(), sc, lo, hi, attrIdx, "batches")
}

// polygonSpans returns region k's pass-2 spans: its whole fill, or with
// exact (accurate mode) its interior, whose boundary pixels pass 3
// resolves.
func polygonSpans(sp *raster.RegionSpans, k int, exact bool) []raster.Span {
	if exact {
		return sp.Interior(k)
	}
	return sp.Fill(k)
}

// resolve runs passes 2 and 3 over finished pass-1 targets, merging each
// region's aggregate into stats[k]: per-region accumulation over the
// region's interior, parallel across regions, plus the accurate-mode exact
// pass over the region's boundary pixels. It records the boundary_obs and
// refine_edge_tests trace counters once per tile.
//
// Race audit: parallelCtx hands each region index k to exactly one
// goroutine, so stats[k] has a single writer; the textures, observation
// lists and bins are frozen after collect and only read here, and the
// edge-test total is atomic.
func (t *tile) resolve(ctx context.Context, stats []RegionStat) error {
	if t.mask != nil {
		trace.FromContext(ctx).Count("boundary_obs", int64(t.collect(t.rows, t.sp)))
		defer t.clear(t.rows)
	}
	var tests atomic.Int64
	err := t.r.parallelCtx(ctx, t.sp.Regions(), func(k int) {
		local := t.foldSpans(polygonSpans(t.sp, k, t.mask != nil))
		if t.mask != nil {
			n := int64(0)
			slots := t.sp.BoundarySlots(k)
			for i, idx := range t.sp.Boundary(k) {
				n += t.fixup(k, idx, slots[i], &local)
			}
			tests.Add(n)
		}
		stats[k].Merge(local)
	})
	if t.mask != nil {
		trace.FromContext(ctx).Count("refine_edge_tests", tests.Load())
	}
	return err
}

// foldSpans is pass 2 over one region's spans, each read as rows of the
// count and value textures: the stat RegionStat.Merge of every covered
// pixel with points — its count, and its sum or its min/max texel as both
// Min and Max — gives, bit for bit. COUNT, SUM and AVG fold every pixel with
// no per-pixel branch (gpu.Canvas.SumSpans says why that is exact); MIN and
// MAX skip the pixels without points, whose texels hold ±Inf.
func (t *tile) foldSpans(spans []raster.Span) RegionStat {
	ext := t.min
	if ext == nil {
		ext = t.max
	}
	if ext != nil {
		n, lo, hi := t.c.MinMaxSpans(spans, t.count, ext)
		return RegionStat{Count: n, Min: lo, Max: hi}
	}
	n, sum := t.c.SumSpans(spans, t.count, t.sum)
	return RegionStat{Count: n, Sum: sum}
}

// parallelCtx fans indices [0,n) — regions of the polygon pass, point
// ranges of the flow join — across the joiner's workers, checking the
// context between claims: a canceled request stops handing out work and
// returns ctx.Err() once the in-flight indices drain.
//
// Race audit: k comes from an atomic cursor, so each index is claimed by
// exactly one goroutine; fn must only write state owned by index k (the
// callers write stats[k] or parts[k]), which partitions every write.
// wg.Wait() sequences the caller's reads after all writes.
func (r *RasterJoin) parallelCtx(ctx context.Context, n int, fn func(k int)) error {
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

// fixup is pass 3 for idx, one of region k's own boundary pixels, with
// boundary slot slot: every observation binned there takes the exact
// point-in-polygon test against the region's edges in the pixel's row and,
// when inside, folds into local. resolve runs it over the region's boundary
// pixels in order, resolveBin over the ones the bin's points reached. It
// returns the number of edge crossing tests made.
func (t *tile) fixup(k int, idx, slot int32, local *RegionStat) int64 {
	bin := t.bin(slot)
	if len(bin) == 0 {
		return 0
	}
	y := int(idx) / t.c.T.W
	row, edges := t.rows[y], t.sp.RowEdges(k, y)
	for _, i := range bin {
		o := &row[i]
		if !edges.Contains(geom.Point{X: o.x, Y: o.y}) {
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
	return int64(len(bin) * edges.Len())
}

// bins groups pass 1's boundary observations by slot without moving them:
// after collect, slot s's observations are rows[y][i] for i in
// order[end[s]-n[s]:end[s]], in point order, where y is the slot's row;
// touched lists the slots with any.
type bins struct {
	order   []int32
	n, end  []int32
	touched []int32
	ranks   raster.SlotRow // scratch
}

// collect bins the per-row observation lists — a stable counting sort by
// slot whose cost is the observations plus one word rank per mask word of
// each non-empty row — and returns the number of observations.
func (b *bins) collect(rows [][]obs, sp *raster.RegionSpans) int {
	total := 0
	for y, row := range rows {
		if len(row) == 0 {
			continue
		}
		b.ranks = sp.SlotRow(y, b.ranks)
		for i := range row {
			s := b.ranks.Slot(int(row[i].px))
			row[i].slot = s
			if b.n[s] == 0 {
				b.touched = append(b.touched, s)
			}
			b.n[s]++
		}
		total += len(row)
	}
	off := int32(0)
	for _, s := range b.touched {
		b.end[s] = off
		off += b.n[s]
	}
	b.order = slices.Grow(b.order[:0], total)[:total]
	for _, row := range rows {
		for i, o := range row {
			b.order[b.end[o.slot]] = int32(i)
			b.end[o.slot]++
		}
	}
	return total
}

// bin returns the row-local indices of slot s's observations.
func (b *bins) bin(s int32) []int32 {
	n := b.n[s]
	if n == 0 {
		return nil
	}
	return b.order[b.end[s]-n : b.end[s]]
}

// clear empties the bins and the per-row lists.
func (b *bins) clear(rows [][]obs) {
	for _, s := range b.touched {
		b.n[s] = 0
	}
	b.touched = b.touched[:0]
	for y := range rows {
		rows[y] = rows[y][:0]
	}
}
