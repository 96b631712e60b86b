package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/raster"
	"repro/internal/trace"
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
	// Dropped counts points whose origin or destination fell outside every
	// region (or the canvas).
	Dropped int64
	// Filtered counts points discarded by the filter conditions.
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

// FlowJoinContext evaluates the OD aggregation with the polygons-first
// pipeline: the regions are rendered once into a polygon-ID texture, then
// each filtered point reads the owner of its origin pixel and of its
// destination pixel; one (o,d) matrix cell is incremented per point whose
// both ends resolve. In Approximate mode assignment uses the pixel-center
// rule, so per-end error is bounded by the pixel diagonal; in Accurate mode
// ends landing in boundary pixels take exact point-in-polygon tests and the
// matrix is exact. With overlapping regions each end resolves to its
// first-matching region.
//
// dxAttr/dyAttr name the destination coordinate columns. Cancellation is
// checked between ID-pass polygons and between OD-pass point batches, and
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

	// The flow scan restricts pruning to the coordinate zones: dropping a
	// block on an attribute or time zone would reclassify its points from
	// Filtered to Dropped (they would never reach the shader), while
	// spatially pruned points are canvas-culled and count as Dropped on
	// both paths.
	sc, err := r.newScan(req)
	if err != nil {
		return nil, err
	}
	sc.spatialOnly = true
	sc.cols.Need(dxIdx, dyIdx)
	sc.setWorld(c.T.World)

	// ID pass: first-drawn region owns each pixel. In accurate mode only
	// each region's interior is drawn; the regions whose boundary crosses a
	// boundary pixel are its slot's candidates for exact resolution.
	sp, err := r.CompiledSpans(ctx, req.Regions, c.T)
	if err != nil {
		return nil, err
	}
	w := c.T.W
	ids := make([]int32, c.T.W*c.T.H)
	for i := range ids {
		ids[i] = -1
	}
	var mask *raster.Bitmap
	var slots raster.SlotIndex
	if r.mode == Accurate {
		mask, slots = sp.Mask(), sp.SlotIndex()
	}
	for k := 0; k < nr; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k32 := int32(k)
		c.DrawSpans(polygonSpans(sp, k, mask != nil), func(px, py int) {
			i := py*w + px
			if ids[i] == -1 {
				ids[i] = k32
			}
		})
	}

	// locate resolves a world point to its containing region (-1 = none):
	// certain owner from the ID texture, or exact tests in boundary pixels
	// against the candidates in ascending region order.
	m := c.PixelMap()
	locate := func(p geom.Point) int32 {
		px, py, ok := m.Map(p.X, p.Y)
		if !ok {
			return -1
		}
		if mask != nil && mask.Get(px, py) {
			for _, q := range slots.Positions(sp.Slot(px, py)) {
				k := sp.RegionOf(q)
				if sp.RowEdges(k, py).Contains(p) {
					return int32(k)
				}
			}
			// Otherwise the pixel's certain owner, if any, covers it whole.
		}
		return ids[py*w+px]
	}

	// OD pass: resolve both ends of every point. Destinations are mapped
	// manually (they are attribute payloads, not the vertex position the
	// device culls on). Points whose origin the canvas culls never reach
	// the shader; they are outside every region and count as dropped. The
	// pass streams in pointBatch-sized draws, checking cancellation between
	// batches like the other joins.
	//
	// The shader writes the OD matrix — region-keyed, not pixel-keyed — so
	// the parallel path shards the point range with a whole partial matrix
	// per worker, merged in shard order after the barrier. Every cell is an
	// int64 count, so the merge is exact and the result is identical to the
	// sequential pass regardless of worker count.
	lo, hi := sc.Lo, sc.Hi
	n := hi - lo
	workers := r.pointWorkers
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
	type flowPartial struct {
		counts            map[int64]int64
		dropped, filtered int64
		shaded            int64
	}
	// Race audit (sharedwrite-clean): each goroutine writes only the partial
	// it receives as an argument; ids, the compiled layer and the locate
	// closure's state are frozen before the fan-out and only read here.
	// Partials merge after wg.Wait().
	parts := make([]*flowPartial, 0, workers)
	var wg sync.WaitGroup
	tr := trace.FromContext(ctx)
	for s := lo; s < hi; s += shard {
		e := s + shard
		if e > hi {
			e = hi
		}
		p := &flowPartial{counts: make(map[int64]int64)}
		parts = append(parts, p)
		wg.Add(1)
		go func(lo, hi int, p *flowPartial) {
			defer wg.Done()
			// Cancellation surfaces as ctx.Err() after the barrier, so the
			// per-shard error can be dropped here.
			_ = sc.pieces(ctx, lo, hi, func(blk *data.Block, plo, phi int, needPred bool) error {
				base := blk.Base
				dx, dy := blk.Attr[dxIdx], blk.Attr[dyIdx]
				batch := r.pointBatch
				if batch <= 0 {
					batch = phi - plo
				}
				for s := plo; s < phi; s += batch {
					if err := ctx.Err(); err != nil {
						return err
					}
					e := s + batch
					if e > phi {
						e = phi
					}
					bb := s
					c.DrawPoints(e-s,
						func(j int) (float64, float64) { jj := bb - base + j; return blk.X[jj], blk.Y[jj] },
						func(px, py, j int) {
							p.shaded++
							i := bb + j
							if needPred && !sc.pred(blk, i) {
								p.filtered++
								return
							}
							jj := i - base
							o := locate(geom.Point{X: blk.X[jj], Y: blk.Y[jj]})
							if o < 0 {
								p.dropped++
								return
							}
							d := locate(geom.Point{X: dx[jj], Y: dy[jj]})
							if d < 0 {
								p.dropped++
								return
							}
							p.counts[int64(o)*int64(nr)+int64(d)]++
						})
					tr.Count("batches", 1)
				}
				return nil
			})
		}(s, e, p)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var shaded int64
	for _, p := range parts {
		shaded += p.shaded
		out.Filtered += p.filtered
		out.Dropped += p.dropped
		for cell, v := range p.counts {
			out.Counts[cell] += v
		}
	}
	out.Dropped += int64(hi-lo) - shaded
	return out, nil
}
