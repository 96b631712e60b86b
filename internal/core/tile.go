package core

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
//  2. Polygon pass — each region is drawn; every covered fragment that holds
//     points folds the point textures into the region's accumulator.
//  3. (Accurate only) Exact pass — pass 2 draws each region's interior,
//     its fill minus its own boundary pixels, and the points that pass 1
//     binned in those boundary pixels take exact point-in-polygon tests
//     against the region's edges in their row.
//
// The polygon side of all three — spans, boundary mask and slots, fill and
// interior runs, row-edge tables — is one raster.RegionSpans from the span
// cache. JoinContext, the scatter-gather gather and SeriesJoinContext all
// run on this tile, through one tile loop (tileLoop), and resolve it with
// one kernel (resolve): passes 2 and 3 over only the pixels pass 1 hit and
// the boundary slots that got observations. A shard's partial pass runs on
// the bare targets.

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
	// hit, on a canvas tile, marks the pixels the pass shaded, so resolve
	// visits and clears only those (nil on a shard's band and the density
	// grid).
	hit *raster.Bitmap
	// straddle, on a shard's band, marks the canvas columns that hold a
	// shard cut: points landing there are not folded but kept raw in frags,
	// in point order, for the coordinator to replay (see shardpass.go).
	straddle []bool
	frags    []shardFrag
}

// newTargets allocates the texture set for agg over bandW×h pixels through
// alloc (the device pool for a canvas tile, newTexture for a shard's band,
// which outlives no pool discipline), each texel at its blend's identity — 0
// for count and sum, ±Inf for MIN/MAX — and, given a boundary mask, empty
// per-row observation lists.
func newTargets(agg Agg, x0, bandW, h int, mask *raster.Bitmap,
	alloc func(w, h int, fill float64) *gpu.Texture) targets {

	t := targets{x0: x0, count: alloc(bandW, h, 0), mask: mask}
	switch agg {
	case Sum, Avg:
		t.sum = alloc(bandW, h, 0)
	case Min:
		t.min = alloc(bandW, h, math.Inf(1))
	case Max:
		t.max = alloc(bandW, h, math.Inf(-1))
	}
	if mask != nil {
		t.rows = make([][]obs, h)
	}
	return t
}

// newTexture is a w×h texture outside the device pool, every texel at fill.
func newTexture(w, h int, fill float64) *gpu.Texture {
	t := gpu.NewTexture(w, h)
	if fill != 0 {
		t.Fill(fill)
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

// blend folds pts, at most chunkSize points, into the targets, one loop per
// target, each in point order: the count, the aggregate's value (sum, min
// or max) read from vs, the hit bitmap, and the boundary mask, whose points
// append their coordinates and value to their row's observation list. vs
// nil folds value 0. Every points-first path — local draws, straddle
// replay, shard bands — folds through here, so each pixel and each row list
// sees the same operations in the same order on all of them.
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
		// Select the points in boundary pixels first, without a branch on
		// the mask bit — one point in six lands in one, at random — then
		// append only those.
		words, stride := mask.Words()
		var sel [chunkSize]int32
		n := 0
		for q, x := range px {
			sel[n] = int32(q)
			n += int(words[int(py[q])*stride+int(x>>6)] >> uint(x&63) & 1)
		}
		for _, q := range sel[:n] {
			k := off[q]
			var v float64
			if vs != nil {
				v = vs[k]
			}
			t.rows[py[q]] = append(t.rows[py[q]], obs{x: xs[k], y: ys[k], v: v, px: px[q]})
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
// plus the compiled polygon side passes 2 and 3 replay, the slot-keyed bins
// pass 3 reads, and resolve's scratch.
type tile struct {
	targets
	r  *RasterJoin
	c  *gpu.Canvas
	sp *raster.RegionSpans
	bins
	// local accumulates each region's stat over one resolve from zero;
	// marks (accurate mode) is a bitmap over the concatenated Boundary
	// lists marking the positions whose slot got observations.
	local []RegionStat
	marks []uint64
	// nobs and tests total, over the tile's resolves, the boundary
	// observations binned and the local edge tests made; spent totals the
	// wall time of each stage over the tile's passes.
	nobs, tests int64
	spent       [stages]time.Duration
	// pooled is where the hit bitmap, bins, local and marks came from and
	// go back to (see scratch).
	pooled *scratch
}

// scratch is the part of a tile sized to its compiled layer rather than to
// its points: the hit bitmap over the canvas, the bins' per-slot counts
// and their grown lists, the per-region stats and the marks over the
// Boundary lists. It lives in the layer's own pool (RegionSpans.Scratch),
// so an evicted layer, or an ad-hoc polygon compiled for one request, takes
// its scratch with it. Only a tile whose body returned nil puts it back:
// resolve has then left every bit, count and stat of it clean.
type scratch struct {
	hit   *raster.Bitmap
	bins  bins
	local []RegionStat
	marks []uint64
}

// newTile prepares a canvas for the points-first passes: the compiled
// region layer (cache hit or one-time compile), the texture set from the
// device pool, each texture at its blend's identity, and the layer's
// scratch, reused clean or allocated. The per-row observation lists are the
// tile's own. Callers pair it with a deferred release, which runs on every
// exit path including cancellation.
func (r *RasterJoin) newTile(ctx context.Context, c *gpu.Canvas, regions *data.RegionSet, agg Agg) (*tile, error) {
	sp, err := r.CompiledSpans(ctx, regions, c.T)
	if err != nil {
		return nil, err
	}
	var mask *raster.Bitmap
	if r.mode == Accurate {
		mask = sp.Mask()
	}
	s, _ := sp.Scratch().Get().(*scratch)
	if s == nil {
		s = &scratch{hit: raster.NewBitmap(c.T.W, c.T.H), local: make([]RegionStat, sp.Regions())}
	}
	if mask != nil && s.marks == nil {
		s.bins = bins{n: make([]int32, sp.Slots()), end: make([]int32, sp.Slots())}
		s.marks = make([]uint64, (sp.BoundaryOffset(sp.Regions())+63)/64)
	}
	t := &tile{r: r, c: c, sp: sp, bins: s.bins, local: s.local, marks: s.marks, pooled: s}
	t.targets = newTargets(agg, 0, c.T.W, c.T.H, mask, r.dev.AcquireTextureFilled)
	t.hit = s.hit
	return t, nil
}

// release returns the tile's textures to the device pool. A clean tile —
// one whose body returned nil, so that every pass 1 was resolved and
// resolve left each texel at its blend's identity — releases them marked
// with it, for the next tile to take without a clear, and puts its scratch
// back in the layer's pool. Any other tile, stopped by an error or a
// cancellation, releases its textures unmarked and drops its scratch.
func (t *tile) release(clean bool) {
	dev := t.r.dev
	identity := [...]float64{0, 0, math.Inf(1), math.Inf(-1)}
	for i, tex := range [...]*gpu.Texture{t.count, t.sum, t.min, t.max} {
		switch {
		case tex == nil:
		case clean:
			dev.ReleaseTextureFilled(tex, identity[i])
		default:
			dev.ReleaseTexture(tex)
		}
	}
	if clean {
		t.pooled.bins = t.bins
		t.sp.Scratch().Put(t.pooled)
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
	defer t.since(stagePass1, time.Now())
	return t.r.pass1(ctx, &t.targets, t.c.PixelMap(), sc, lo, hi, attrIdx, "batches")
}

// The stages of a canvas tile whose wall time tileLoop traces, one span
// each per join: pass 1 over a local scan, pass 2, binning and pass 3.
const (
	stagePass1 = iota
	stageAccumulate
	stageCollect
	stageRefine
	stages
)

// stageNames are the stages' span names.
var stageNames = [stages]string{"core.pass1", "core.accumulate", "core.collect", "core.refine"}

// since adds the time from start to now to stage s and returns now.
func (t *tile) since(s int, start time.Time) time.Time {
	now := time.Now()
	t.spent[s] += now.Sub(start)
	return now
}

// resolve runs passes 2 and 3 over finished pass-1 targets and merges each
// region's aggregate over the tile into stats[k]. Its work scales with the
// pixels pass 1 hit and the observations it kept, plus one word test per 64
// canvas pixels and per 64 boundary positions — not with the pixels the
// layer covers. Pass 2 (accumulate) folds every hit pixel into the regions
// whose runs cover it. In accurate mode pass 3 bins the boundary
// observations (collect), marks every position of the observed slots in
// marks and, parallel across runs of consecutive regions, folds each
// region's marked positions in Boundary order through their membership
// records (refine). Each region's stat accumulates from zero in local and
// is merged into stats[k] within the fan-out. Every hit pixel, texel, bin
// and mark is cleared on the way, so the tile is ready for another pass 1 —
// a series' next bin — and, once its body is done, its textures and scratch
// for the next request (release). The time of each stage adds to spent.
//
// Race audit: parallelCtx hands each claim, regions [k0, k1), to exactly
// one goroutine, which writes only local[k] and stats[k] of those regions;
// the textures, observation lists, bins and marks are only read during the
// fan-out, and the edge-test total is atomic. marks is cleared after the
// fan-out, not inside it, because one word can hold two regions' positions.
func (t *tile) resolve(ctx context.Context, stats []RegionStat) error {
	start := time.Now()
	if err := t.accumulate(ctx); err != nil {
		return err
	}
	start = t.since(stageAccumulate, start)
	slots := t.sp.SlotIndex()
	if t.mask != nil {
		t.nobs += int64(t.collect(t.rows, t.sp))
		for _, s := range t.touched {
			for _, q := range slots.Positions(s) {
				t.marks[q>>6] |= 1 << uint(q&63)
			}
		}
		start = t.since(stageCollect, start)
	}
	var tests atomic.Int64
	n := t.sp.Regions()
	claims := min(n, claimsPerWorker*t.r.workers)
	err := t.r.parallelCtx(ctx, claims, func(c int) {
		k0, k1 := c*n/claims, (c+1)*n/claims
		if t.mask != nil {
			tests.Add(t.refine(k0, k1))
		}
		for k := k0; k < k1; k++ {
			if local := &t.local[k]; local.Count != 0 {
				stats[k].Merge(*local)
				*local = RegionStat{}
			}
		}
	})
	t.tests += tests.Load()
	if t.mask != nil {
		for _, s := range t.touched {
			for _, q := range slots.Positions(s) {
				t.marks[q>>6] = 0
			}
		}
		t.clear(t.rows)
		t.since(stageRefine, start)
	}
	return err
}

// accumulate is pass 2. It visits the hit pixels in ascending canvas index —
// rows down, each row's hit words left to right — and folds each into
// local[k] of every region k whose runs cover it: the interior runs in
// accurate mode, the fill runs in approximate mode. A region's runs are
// drawn row by row, left to right, so every region sees its pixels in the
// order DrawSpans replays its spans. A pixel folds its count and its sum,
// or — for MIN/MAX — merges its count with its extremum texel as both Min
// and Max; then its hit bit and texels are cleared, the extremum texel to
// the blend's ±Inf identity. ctx is polled once per pollRows rows.
func (t *tile) accumulate(ctx context.Context) error {
	runs := t.sp.FillRows()
	if t.mask != nil {
		runs = t.sp.InteriorRows()
	}
	w, local, hit := t.c.T.W, t.local, t.hit
	count := t.count.Data
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
		if y%pollRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		words := hit.Row(y)
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
					s := &local[row[j].K]
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
	return nil
}

// pollRows is the number of canvas rows pass 2 walks between context polls.
const pollRows = 64

// claimsPerWorker is how many runs of consecutive regions pass 3 splits
// the layer into per worker: enough that a worker finishing early finds
// more, few enough that a claim's cost is its marks, not its bookkeeping.
const claimsPerWorker = 8

// refine is pass 3 for regions [k0, k1): fixup, into local[k], on each
// boundary position of region k set in marks, region by region in Boundary
// order — one walk over the marks of the regions' concatenated Boundary
// lists, reading each marked position's membership record. It returns the
// number of local edge tests made.
func (t *tile) refine(k0, k1 int) (tests int64) {
	marks, sp := t.marks, t.sp
	k := k0
	for q, hi := int(sp.BoundaryOffset(k0)), int(sp.BoundaryOffset(k1)); q < hi; q++ {
		word := marks[q>>6] >> uint(q&63)
		if word == 0 {
			q |= 63 // on to the next word
			continue
		}
		if q += bits.TrailingZeros64(word); q >= hi {
			break
		}
		for q >= int(sp.BoundaryOffset(k+1)) {
			k++
		}
		rec := sp.Member(int32(q))
		bin := t.bin(sp.PixelSlot(sp.Boundary(k)[q-int(sp.BoundaryOffset(k))]))
		tests += int64(len(bin) * rec.Local())
		t.fixup(rec, bin, &t.local[k])
	}
	return tests
}

// parallelCtx fans indices [0,n) — resolve's runs of regions, the point
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

// fixup is pass 3 at one boundary position: every observation of bin, the
// position's pixel's, in point order, takes the exact point-in-polygon
// test of rec, the position's membership record, and folds into local when
// inside.
//
// The fold does not branch on the test either. The count adds 0 or 1; a
// sum, min or max takes its new value or keeps its old one by selecting
// bits (pick), never by multiplying by the test: a product would turn a −0
// sum into +0, and an outside ±Inf or NaN value would turn any sum into
// NaN. Every field carries exactly the bits RegionStat.Observe, or Count++
// and Sum += v, would leave behind an if.
func (t *tile) fixup(rec raster.Member, bin []xyv, local *RegionStat) {
	switch {
	case t.min != nil || t.max != nil:
		for _, o := range bin {
			in := b2u(rec.Contains(geom.Point{X: o.x, Y: o.y}))
			first := b2u(local.Count == 0)
			local.Min = pick(in&(first|b2u(o.v < local.Min)), o.v, local.Min)
			local.Max = pick(in&(first|b2u(o.v > local.Max)), o.v, local.Max)
			local.Count += int64(in)
			local.Sum = pick(in, local.Sum+o.v, local.Sum)
		}
	case t.sum != nil:
		for _, o := range bin {
			in := b2u(rec.Contains(geom.Point{X: o.x, Y: o.y}))
			local.Count += int64(in)
			local.Sum = pick(in, local.Sum+o.v, local.Sum)
		}
	default:
		for _, o := range bin {
			local.Count += int64(b2u(rec.Contains(geom.Point{X: o.x, Y: o.y})))
		}
	}
}

// b2u is 1 for true and 0 for false; the compiler lowers it to the flag
// byte the comparison already produced, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// pick returns x when c is 1 and y when c is 0, bit for bit: a mask selects
// between the two bit patterns.
func pick(c uint64, x, y float64) float64 {
	xb, yb := math.Float64bits(x), math.Float64bits(y)
	return math.Float64frombits(yb ^ (xb^yb)&-c)
}

// bins groups pass 1's boundary observations by slot: after collect, slot
// s's observations are binned[end[s]-n[s]:end[s]], in point order, where
// they lie side by side for pass 3 to read; touched lists the slots with
// any.
type bins struct {
	binned  []xyv
	n, end  []int32
	touched []int32
}

// xyv is a binned observation: the point's coordinates and its value.
type xyv struct{ x, y, v float64 }

// collect bins the per-row observation lists — a stable counting sort by
// slot, copying each observation into its bin — and returns the number of
// observations. An observation's slot is its mask word's first slot, from
// the layer's compiled per-word prefix, plus the mask bits below its
// pixel's. Slots number the pixels row-major and touched lists a row's
// slots together, so the copies of one row land in one stretch of binned.
func (b *bins) collect(rows [][]obs, sp *raster.RegionSpans) int {
	mask, stride := sp.Mask().Words()
	first := sp.WordSlots()
	total := 0
	for y, row := range rows {
		for i := range row {
			x := row[i].px
			w := y*stride + int(x>>6)
			s := first[w] + int32(bits.OnesCount64(mask[w]&(1<<uint(x&63)-1)))
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
	b.binned = slices.Grow(b.binned[:0], total)[:total]
	for _, row := range rows {
		for _, o := range row {
			b.binned[b.end[o.slot]] = xyv{o.x, o.y, o.v}
			b.end[o.slot]++
		}
	}
	return total
}

// bin returns slot s's observations.
func (b *bins) bin(s int32) []xyv {
	n := b.n[s]
	if n == 0 {
		return nil
	}
	return b.binned[b.end[s]-n : b.end[s]]
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
