package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/trace"
)

// Package-level pruning counters, aggregated across every scan in the
// process for /api/stats. Per-request numbers ride on the request trace
// ("segment.blocks_scanned" / "segment.blocks_pruned").
var (
	scanBlocksScanned atomic.Int64
	scanBlocksPruned  atomic.Int64
)

// ScanStats returns the process-wide block-scan counters: blocks read and
// drawn vs. blocks eliminated by zone-map pruning.
func ScanStats() (scanned, pruned int64) {
	return scanBlocksScanned.Load(), scanBlocksPruned.Load()
}

// attrFilter is one compiled attribute filter: column position plus the
// half-open value interval.
type attrFilter struct {
	idx      int
	min, max float64
}

// residualPred is the per-point test that remains after block pruning: the
// time window (when the source is not time-sorted) and the attribute
// filters, evaluated against a decoded block by absolute point index.
type residualPred struct {
	hasTime      bool
	tStart, tEnd int64
	filters      []attrFilter
}

// newResidualPred compiles filters against the source's column order.
func newResidualPred(src data.PointSource, filters []Filter) (residualPred, error) {
	var p residualPred
	for _, f := range filters {
		idx := data.AttrIndex(src, f.Attr)
		if idx < 0 {
			return p, fmt.Errorf("core: filter attribute %q missing from %q", f.Attr, src.Name())
		}
		p.filters = append(p.filters, attrFilter{idx: idx, min: f.Min, max: f.Max})
	}
	return p, nil
}

// need adds the columns the predicate reads to cols.
func (p *residualPred) need(cols *data.Columns) {
	cols.T = cols.T || p.hasTime
	for _, f := range p.filters {
		cols.Need(f.idx)
	}
}

// empty reports whether the predicate passes every point trivially.
func (p *residualPred) empty() bool { return !p.hasTime && len(p.filters) == 0 }

// inTime reports whether absolute point index i of blk lies in the
// residual time window (always, when there is none).
func (p *residualPred) inTime(blk *data.Block, i int) bool {
	t := blk.T
	return !p.hasTime || (t[i-blk.Base] >= p.tStart && t[i-blk.Base] < p.tEnd)
}

// eval tests absolute point index i of blk.
func (p *residualPred) eval(blk *data.Block, i int) bool {
	j := i - blk.Base
	if p.hasTime {
		if t := blk.T[j]; t < p.tStart || t >= p.tEnd {
			return false
		}
	}
	for _, f := range p.filters {
		if v := blk.Attr[f.idx][j]; !(v >= f.min && v < f.max) {
			return false
		}
	}
	return true
}

// Scan is a compiled point scan: the index range to cover (narrowed by
// binary search when the source is time-sorted), the residual per-point
// predicate, and the zone-map bounds that let pieces skip whole blocks. One
// Scan serves all tiles of a join; setWorld re-aims the spatial bound per
// tile. pieces is safe for concurrent callers once the scan is configured.
type Scan struct {
	Src    data.PointSource
	Lo, Hi int
	// blocks, when non-nil, is the ascending block list the walk is limited
	// to (a shard's assignment); nil walks every block. owned restricts the
	// scan to points with world-x in [xlo, xhi) — see own.
	blocks   []int
	owned    bool
	xlo, xhi float64

	// cols is the projection every block is read with: the residual
	// predicate's columns and the aggregate attribute, plus whatever else
	// the consumer declared. A column outside it may come back nil.
	cols     data.Columns
	res      residualPred
	world    geom.BBox
	worldSet bool
	prune    bool
	// keepFiltered turns attribute-zone pruning off, so every point the
	// filters reject reaches the per-point test. The flow join needs it:
	// eliminating a block on an attribute zone would turn its points from
	// Filtered into Dropped, whereas spatially pruned points are
	// canvas-culled and land in Dropped either way, and points outside the
	// time window count in neither tally.
	keepFiltered bool
}

// newScan compiles the request into a Scan against req.Data(). The time
// filter narrows [Lo, Hi) by binary search on a time-sorted source and
// joins the residual predicate otherwise. The scan reads the predicate's
// columns and, when the aggregate needs it, req.Attr.
func (r *RasterJoin) newScan(req Request) (*Scan, error) {
	src := req.Data()
	sc := &Scan{Src: src, Lo: 0, Hi: src.Len(), prune: r.blockPrune}
	var err error
	if sc.res, err = newResidualPred(src, req.Filters); err != nil {
		return nil, err
	}
	if tf := req.Time; tf != nil {
		if err := sc.setTime(tf.Start, tf.End); err != nil {
			return nil, err
		}
	}
	sc.res.need(&sc.cols)
	if req.Agg.NeedsAttr() {
		sc.cols.Need(data.AttrIndex(src, req.Attr))
	}
	return sc, nil
}

// own limits the scan to one shard: walk only the assigned blocks and keep
// only points with world-x in [xlo, xhi). Blocks whose x zone cannot
// intersect the range are pruned, and a piece reports needPred = false only
// when the zone also proves the whole block lies inside the range — sound
// under NaN coordinates, because zone min/max ignore NaN and NaN positions
// are canvas-culled before any per-point test runs. Where needPred is true
// the caller tests owns beside pred (kept out of pred so the filter
// predicate of every other scan stays inlinable in the point loop).
func (sc *Scan) own(blocks []int, xlo, xhi float64) {
	if blocks == nil {
		blocks = []int{} // an empty assignment walks nothing, not everything
	}
	sc.blocks = blocks
	sc.owned, sc.xlo, sc.xhi = true, xlo, xhi
}

// owns reports whether an owned scan keeps a point at world-x x.
func (sc *Scan) owns(x float64) bool { return x >= sc.xlo && x < sc.xhi }

// setTime aims the scan at the time window [start, end): the index range
// by binary search on a time-sorted source, the residual predicate
// otherwise. The series re-aims its scan once per bin; a scan whose source
// is not time-sorted must have been compiled with a window, so its
// projection reads the time column. An inverted window (start > end)
// searches to lo > hi; the range clamps to empty so no pass reads a
// negative length.
func (sc *Scan) setTime(start, end int64) error {
	if sc.Src.TimeSorted() {
		lo, hi, err := sourceTimeWindow(sc.Src, start, end)
		if err != nil {
			return err
		}
		sc.Lo, sc.Hi, sc.res.hasTime = lo, max(hi, lo), false
		return nil
	}
	sc.Lo, sc.Hi = 0, sc.Src.Len()
	sc.res.hasTime, sc.res.tStart, sc.res.tEnd = true, start, end
	return nil
}

// setWorld bounds the scan spatially: blocks whose coordinate zones are
// disjoint from the canvas window are pruned. The test keeps blocks that
// touch the window edge — raster.PixelMap.Map is inclusive at the max
// edge — and a block of all-NaN coordinates (zone Min=+Inf) is pruned,
// matching the canvas cull of NaN positions.
func (sc *Scan) setWorld(w geom.BBox) {
	sc.world = w
	sc.worldSet = true
}

// inWindow counts the points of [Lo, Hi) in the scan's time window: the
// whole range when the window was resolved by binary search or there is
// none, else the points whose timestamps pass the residual window. A block
// whose time zone lies wholly inside or outside the window is counted from
// its zone; only the blocks it straddles read their time column.
func (sc *Scan) inWindow(ctx context.Context) (int64, error) {
	if !sc.res.hasTime {
		return int64(sc.Hi - sc.Lo), nil
	}
	src, start, end := sc.Src, sc.res.tStart, sc.res.tEnd
	var n int64
	for b := range src.NumBlocks() {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		blo, bhi := src.BlockSpan(b)
		blo, bhi = max(blo, sc.Lo), min(bhi, sc.Hi)
		if blo >= bhi {
			continue
		}
		switch z := src.Zone(b); {
		case z.MaxT < start || z.MinT >= end:
		case z.MinT >= start && z.MaxT < end:
			n += int64(bhi - blo)
		default:
			blk, err := src.Read(b, data.Columns{T: true})
			if err != nil {
				return 0, fmt.Errorf("core: time window over %q: %w", src.Name(), err)
			}
			for i := blo; i < bhi; i++ {
				if sc.res.inTime(blk, i) {
					n++
				}
			}
		}
	}
	return n, nil
}

// pred evaluates the residual predicate for absolute point index i of blk.
func (sc *Scan) pred(blk *data.Block, i int) bool { return sc.res.eval(blk, i) }

// survives tests a block's zone map. ok=false means no point in the block
// can contribute (the block is skipped without decoding); full=true means
// every point passes the residual predicate, so the per-point check can be
// skipped. Both are sound under NaN: zone min/max ignore NaN values, NaN
// coordinates are canvas-culled, NaN attribute values fail every filter,
// and full containment requires a NaN-free zone.
func (sc *Scan) survives(z data.Zone) (ok, full bool) {
	if !sc.prune {
		return true, sc.res.empty() && !sc.owned
	}
	if sc.worldSet {
		if z.X.Min > sc.world.MaxX || z.X.Max < sc.world.MinX ||
			z.Y.Min > sc.world.MaxY || z.Y.Max < sc.world.MinY {
			return false, false
		}
	}
	full = true
	if sc.owned {
		if z.X.Max < sc.xlo || z.X.Min >= sc.xhi {
			return false, false
		}
		if !(sc.xlo <= z.X.Min && z.X.Max < sc.xhi) {
			full = false
		}
	}
	if sc.res.hasTime {
		if z.MaxT < sc.res.tStart || z.MinT >= sc.res.tEnd {
			return false, false
		}
		if !(z.MinT >= sc.res.tStart && z.MaxT < sc.res.tEnd) {
			full = false
		}
	}
	for _, f := range sc.res.filters {
		zc := z.Attr[f.idx]
		if !sc.keepFiltered && (zc.Max < f.min || zc.Min >= f.max) {
			return false, false
		}
		if zc.HasNaN || !(zc.Min >= f.min && zc.Max < f.max) {
			full = false
		}
	}
	return true, full
}

// pieces streams the surviving blocks overlapping [s, e) ∩ [Lo, Hi) to fn
// in ascending index order, one call per block, with the clipped absolute
// range and whether the residual predicate still needs evaluating. The walk
// covers every block of the source, or only sc.blocks when a shard's
// assignment is set; in-RAM and segment sources take the same walk. The
// context is checked once per block — pruning sweeps over cold zones stay
// cancelable.
func (sc *Scan) pieces(ctx context.Context, s, e int, fn func(blk *data.Block, lo, hi int, needPred bool) error) error {
	s, e = max(s, sc.Lo), min(e, sc.Hi)
	if s >= e {
		return nil
	}
	src := sc.Src
	// Walk positions index sc.blocks when set, block numbers otherwise;
	// either way ascending, starting at the first block reaching past s.
	n := src.NumBlocks()
	blockAt := func(i int) int { return i }
	if sc.blocks != nil {
		n = len(sc.blocks)
		blockAt = func(i int) int { return sc.blocks[i] }
	}
	i0 := sort.Search(n, func(i int) bool { _, bhi := src.BlockSpan(blockAt(i)); return bhi > s })

	var scanned, pruned int64
	defer func() {
		scanBlocksScanned.Add(scanned)
		scanBlocksPruned.Add(pruned)
		tr := trace.FromContext(ctx)
		if scanned > 0 {
			tr.Count("segment.blocks_scanned", scanned)
		}
		if pruned > 0 {
			tr.Count("segment.blocks_pruned", pruned)
		}
	}()

	for i := i0; i < n; i++ {
		b := blockAt(i)
		blo, bhi := src.BlockSpan(b)
		if blo >= e {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		ok, full := sc.survives(src.Zone(b))
		if !ok {
			pruned++
			continue
		}
		scanned++
		blk, err := src.Read(b, sc.cols)
		if err != nil {
			return fmt.Errorf("core: reading block %d of %q: %w", b, src.Name(), err)
		}
		if err := fn(blk, max(blo, s), min(bhi, e), !full); err != nil {
			return err
		}
	}
	return nil
}

// sourceTimeWindow returns the index range [lo, hi) of points with
// timestamps in [start, end) on a time-sorted source. The block to probe
// is found from the resident zone maps, so at most two blocks' time columns
// are read.
func sourceTimeWindow(src data.PointSource, start, end int64) (lo, hi int, err error) {
	searchT := func(t int64) (int, error) {
		nb := src.NumBlocks()
		// Sorted source: block MinT/MaxT are ordered, so the first block
		// whose MaxT reaches t holds the boundary.
		b := sort.Search(nb, func(b int) bool { return src.Zone(b).MaxT >= t })
		if b == nb {
			return src.Len(), nil
		}
		blk, err := src.Read(b, data.Columns{T: true})
		if err != nil {
			return 0, fmt.Errorf("core: time window over %q: %w", src.Name(), err)
		}
		blo, _ := src.BlockSpan(b)
		off := sort.Search(len(blk.T), func(j int) bool { return blk.T[j] >= t })
		return blo + off, nil
	}
	if lo, err = searchT(start); err != nil {
		return 0, 0, err
	}
	if hi, err = searchT(end); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}
