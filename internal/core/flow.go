package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/raster"
)

// FlowResult is a sparse origin-destination matrix over region positions:
// cell (o, d) counts the points whose origin lies in region o and whose
// destination lies in region d — the query behind Urbane's taxi-flow view.
// Destinations come from two attribute columns holding mercator
// coordinates (data.DropoffXAttr / DropoffYAttr for the taxi generator).
type FlowResult struct {
	// Regions is the number of regions (matrix dimension).
	Regions int
	// Counts maps origin*Regions+destination to the flow count. Only
	// non-zero cells are present.
	Counts map[int64]int64
	// Dropped counts points in the time window whose origin or
	// destination fell outside every region (or the canvas).
	Dropped int64
	// Filtered counts points in the time window and on the canvas that
	// the attribute filters discarded. A point outside the time window
	// counts in neither tally, however the points are stored.
	Filtered int64
	// Algorithm, CanvasW/H, PixelSize mirror Result's metadata.
	Algorithm        string
	CanvasW, CanvasH int
	PixelSize        float64
}

// At returns the flow count from origin region o to destination region d.
func (f *FlowResult) At(o, d int) int64 { return f.Counts[int64(o)*int64(f.Regions)+int64(d)] }

// Total returns the total assigned flow.
func (f *FlowResult) Total() int64 {
	var n int64
	for _, v := range f.Counts {
		n += v
	}
	return n
}

// Flow is one OD pair with its count, used for ranked reporting.
type Flow struct {
	From, To int
	Count    int64
}

// Top returns the n largest flows, ties broken by (from, to) for
// determinism.
func (f *FlowResult) Top(n int) []Flow {
	flows := make([]Flow, 0, len(f.Counts))
	for cell, v := range f.Counts {
		flows = append(flows, Flow{
			From:  int(cell / int64(f.Regions)),
			To:    int(cell % int64(f.Regions)),
			Count: v,
		})
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Count != flows[j].Count {
			return flows[i].Count > flows[j].Count
		}
		if flows[i].From != flows[j].From {
			return flows[i].From < flows[j].From
		}
		return flows[i].To < flows[j].To
	})
	if n < len(flows) {
		flows = flows[:n]
	}
	return flows
}

// FlowJoinContext evaluates the OD aggregation over a region-ID texture:
// the regions are written once into a texture holding each pixel's owner,
// then each filtered point reads the owner of its origin pixel and of its
// destination pixel; one (o,d) matrix cell is incremented per point whose
// both ends resolve. In Approximate mode assignment uses the pixel-center
// rule, so per-end error is bounded by the pixel diagonal; in Accurate mode
// ends landing in boundary pixels take exact point-in-polygon tests and the
// matrix is exact. With overlapping regions each end resolves to its
// first-matching region.
//
// dxAttr/dyAttr name the destination coordinate columns. Cancellation is
// checked between ID-pass regions and between OD-pass point batches, and
// the canvas is released on every exit path.
func (r *RasterJoin) FlowJoinContext(ctx context.Context, req Request, dxAttr, dyAttr string) (*FlowResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	src := req.Data()
	dxIdx := data.AttrIndex(src, dxAttr)
	dyIdx := data.AttrIndex(src, dyAttr)
	if dxIdx < 0 || dyIdx < 0 {
		return nil, fmt.Errorf("core: flow needs destination columns %q/%q in point set %q",
			dxAttr, dyAttr, src.Name())
	}
	nr := req.Regions.Len()
	out := &FlowResult{
		Regions:   nr,
		Counts:    make(map[int64]int64),
		Algorithm: fmt.Sprintf("raster-flow-%dpx", r.resolution),
	}
	window := req.Regions.Bounds()
	if window.IsEmpty() || src.Len() == 0 || nr == 0 {
		return out, nil
	}
	if r.epsilon > 0 {
		return nil, fmt.Errorf("core: flow join runs at display resolution; ε mode unsupported")
	}
	full := r.fullTransform(window)
	c, err := r.dev.NewCanvas(full.World, full.W, full.H)
	if err != nil {
		return nil, fmt.Errorf("core: flow join: %w (reduce the resolution)", err)
	}
	defer c.Release()
	out.CanvasW, out.CanvasH = c.T.W, c.T.H
	out.PixelSize = c.T.PixelWidth()

	// The flow scan keeps the blocks its attribute zones would prune:
	// dropping them would reclassify their points from Filtered to Dropped.
	sc, err := r.newScan(req)
	if err != nil {
		return nil, err
	}
	sc.keepFiltered = true
	sc.cols.Need(dxIdx, dyIdx)
	sc.setWorld(c.T.World)

	sp, err := r.CompiledSpans(ctx, req.Regions, c.T)
	if err != nil {
		return nil, err
	}
	od := &odLookup{m: c.PixelMap(), sp: sp, sc: sc, dx: dxIdx, dy: dyIdx, nr: int64(nr)}
	if r.mode == Accurate {
		od.mask, od.slots = sp.Mask(), sp.SlotIndex()
	}
	if err := od.drawIDs(ctx); err != nil {
		return nil, err
	}

	// OD pass: the scan's range is cut into one contiguous range per worker,
	// each folded into its own partial matrix; the partials merge in range
	// order. Every cell is an int64 count, so the merge is exact and the
	// result is identical at any worker count.
	lo, hi := sc.Lo, sc.Hi
	ranges := r.workers
	if hi-lo < 4096 {
		ranges = 1
	}
	step := max((hi-lo+ranges-1)/ranges, 1)
	parts := make([]flowPartial, 0, ranges)
	for s := lo; s < hi; s += step {
		parts = append(parts, flowPartial{lo: s, hi: min(s+step, hi), counts: make(map[int64]int64)})
	}
	// Race audit: parallelCtx hands each range index to exactly one
	// goroutine, which writes only parts[i]; the lookup state is frozen
	// before the fan-out and only read here.
	err = r.parallelCtx(ctx, len(parts), func(i int) {
		p := &parts[i]
		p.err = r.batched(ctx, sc, p.lo, p.hi, "batches",
			func(blk *data.Block, s, e int, needPred bool) { od.fold(p, blk, s, e, needPred) })
	})
	if err != nil {
		return nil, err
	}
	for i := range parts {
		p := &parts[i]
		if p.err != nil {
			return nil, p.err
		}
		out.Filtered += p.filtered
		for cell, v := range p.counts {
			out.Counts[cell] += v
		}
	}
	// Every point in the window that is neither counted nor filtered is
	// dropped: an end outside every region, a point the canvas culls, or
	// one in a block the spatial zones pruned.
	inWindow, err := sc.inWindow(ctx)
	if err != nil {
		return nil, err
	}
	out.Dropped = inWindow - out.Total() - out.Filtered
	return out, nil
}

// flowPartial is one range's share of the OD pass: its matrix, its
// filtered tally and the error that ended it, if any.
type flowPartial struct {
	lo, hi   int
	counts   map[int64]int64
	filtered int64
	err      error
}

// odLookup is the flow join's frozen lookup state: the canvas pixel map,
// the region-ID texture and, in accurate mode, the boundary mask and slot
// candidates for exact tests, plus the scan and destination columns.
type odLookup struct {
	m     raster.PixelMap
	ids   []int32
	sp    *raster.RegionSpans
	mask  *raster.Bitmap
	slots raster.SlotIndex
	sc    *Scan
	dx    int
	dy    int
	nr    int64
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

// drawIDs writes the region-ID texture: the first region whose pass-2 spans
// cover a pixel owns it. In accurate mode only each region's interior is
// written — a pixel on its own boundary is resolved exactly by owner, while
// a pixel on another region's boundary still lies wholly inside it.
func (od *odLookup) drawIDs(ctx context.Context) error {
	w := od.m.W
	od.ids = make([]int32, w*od.m.H)
	for i := range od.ids {
		od.ids[i] = -1
	}
	for k := 0; k < od.sp.Regions(); k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, s := range polygonSpans(od.sp, k, od.mask != nil) {
			row := od.ids[int(s.Y)*w+int(s.X0) : int(s.Y)*w+int(s.X1)]
			for i, id := range row {
				if id == -1 {
					row[i] = int32(k)
				}
			}
		}
	}
	return nil
}

// owner resolves world point (x, y), which landed in pixel (px, py), to its
// containing region (-1 = none): the exact tests against the boundary
// pixel's candidates in ascending region order, else the pixel's certain
// owner, which covers it whole.
func (od *odLookup) owner(px, py int, x, y float64) int32 {
	if od.mask != nil && od.mask.Get(px, py) {
		for _, q := range od.slots.Positions(od.sp.Slot(px, py)) {
			if od.sp.Member(q).Contains(geom.Point{X: x, Y: y}) {
				return int32(od.sp.RegionOf(q))
			}
		}
	}
	return od.ids[py*od.m.W+px]
}

// locate resolves world point (x, y) to its containing region (-1 = none,
// also for a point outside the canvas).
func (od *odLookup) locate(x, y float64) int32 {
	px, py, ok := od.m.Map(x, y)
	if !ok {
		return -1
	}
	return od.owner(px, py, x, y)
}

// fold is the OD pass over points [lo, hi) of blk into p: each point the
// canvas maps that lies in the time window and passes the filters resolves
// its origin and destination, and a point with both ends in a region
// counts in its cell. A mapped point in the window that fails a filter
// counts as filtered; one outside the window counts nowhere. Only the
// origin is the vertex position the canvas culls on; a destination outside
// it drops the point.
func (od *odLookup) fold(p *flowPartial, blk *data.Block, lo, hi int, needPred bool) {
	j0, j1 := lo-blk.Base, hi-blk.Base
	xs, ys := blk.X[j0:j1], blk.Y[j0:j1]
	dxs, dys := blk.Attr[od.dx][j0:j1], blk.Attr[od.dy][j0:j1]
	for k, x := range xs {
		y := ys[k]
		px, py, ok := od.m.Map(x, y)
		if !ok {
			continue
		}
		if needPred {
			if !od.sc.res.inTime(blk, lo+k) {
				continue
			}
			if !od.sc.pred(blk, lo+k) {
				p.filtered++
				continue
			}
		}
		o := od.owner(px, py, x, y)
		if o < 0 {
			continue
		}
		if d := od.locate(dxs[k], dys[k]); d >= 0 {
			p.counts[int64(o)*od.nr+int64(d)]++
		}
	}
}
