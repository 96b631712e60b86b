// Package geoblocks implements a GeoBlocks-style pre-aggregated spatial
// hierarchy (Winter et al., PAPERS.md): a pyramid of grid cells over a
// point set where every cell stores partial aggregates (count, compensated
// sum, min, max) per attribute, plus a CSR point-id list at the finest
// level. An arbitrary-polygon aggregation query is answered by classifying
// cells against the polygon — cells fully inside are folded from stored
// aggregates in O(cells), cells the boundary crosses fall through to an
// exact point-in-polygon refinement over only the fringe — generalizing
// the accurate raster join's interior/boundary split into a persistent
// structure.
//
// Contracts relative to the full accurate raster join: COUNT, MIN and MAX
// are bit-identical (both paths decide membership with the same even-odd
// geom.Polygon.Contains and min/max are order-independent); SUM and AVG
// are ε-bound (both sides are compensated, but summation order differs).
// See DESIGN.md "GeoBlocks cell classification" for the invariant and the
// ε accounting.
package geoblocks

import (
	"context"
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/fsum"
	"repro/internal/geom"
)

// DefaultMaxLevel is the default finest pyramid level: level L has
// 2^L × 2^L cells, so 8 gives a 256×256 finest grid (≈ 87k cells across
// all levels) — fine enough that fringes are thin, coarse enough that the
// pyramid stays a few megabytes per attribute.
const DefaultMaxLevel = 8

// MaxMaxLevel caps the finest level; 2^12 = 4096 per side keeps the
// pyramid under the device texture limit's order of magnitude and the
// build O(n + 4^level) bounded.
const MaxMaxLevel = 12

// buildPollStride is how many points the build processes between context
// polls.
const buildPollStride = 1 << 16

// attrPyr is the per-attribute aggregate pyramid: one sum/min/max slice
// per level, indexed like counts. min/max are only meaningful where the
// cell count is nonzero.
type attrPyr struct {
	col  []float64 // the raw column, for fringe refinement
	sums [][]float64
	mins [][]float64
	maxs [][]float64
}

// Index is the immutable hierarchy over one point set. Build once with
// BuildContext; safe for concurrent readers.
type Index struct {
	ps       *data.PointSet
	bounds   geom.BBox
	maxLevel int
	// eps conservatively expands cell boxes during classification so
	// floating-point residue in point bucketing can never move a point
	// across an interior/outside cell's wall (such cells become fringe
	// instead). See classify.
	eps float64
	// empty marks an index over zero points: every classification is
	// trivially all-outside.
	empty bool

	// CSR point-id lists at the finest level: ids of cell (cx, cy) are
	// order[start[cy*side+cx] : start[cy*side+cx+1]].
	start []int32
	order []int32

	// baseLen is the number of points the base CSR covers. A freshly built
	// index covers everything (baseLen == Len()); an index produced by
	// PatchAppend keeps the base CSR shared and lists ids >= baseLen in the
	// tail CSR below, nil on freshly built indexes. A cell's candidates are
	// its base ids followed by its tail ids — increasing index order, the
	// same enumeration a rebuild's counting sort yields.
	baseLen   int
	tailStart []int32
	tailOrder []int32

	// counts[L][cy*side_L+cx] is the number of points in the cell.
	counts [][]int64
	attrs  map[string]*attrPyr

	// finW, finH are the finest-level cell dimensions, precomputed for
	// the per-point bucketing loop.
	finW, finH float64
}

// BuildContext constructs the hierarchy for ps at the given finest level
// (<=0 uses DefaultMaxLevel). All attribute columns are materialized. The
// build polls ctx between strides, so an aborted request never pays for a
// full build.
func BuildContext(ctx context.Context, ps *data.PointSet, maxLevel int) (*Index, error) {
	if maxLevel <= 0 {
		maxLevel = DefaultMaxLevel
	}
	if maxLevel > MaxMaxLevel {
		maxLevel = MaxMaxLevel
	}
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{ps: ps, maxLevel: maxLevel, attrs: make(map[string]*attrPyr)}
	if ps.Len() == 0 {
		ix.empty = true
		ix.bounds = geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
		return ix, nil
	}
	ix.bounds = ps.Bounds()
	// Degenerate extents (all points on one vertical/horizontal line)
	// still need nonzero cell dimensions for the box arithmetic.
	if ix.bounds.Width() <= 0 {
		ix.bounds.MaxX = ix.bounds.MinX + 1
	}
	if ix.bounds.Height() <= 0 {
		ix.bounds.MaxY = ix.bounds.MinY + 1
	}
	ix.eps = 1e-9 * (math.Abs(ix.bounds.MinX) + math.Abs(ix.bounds.MaxX) +
		math.Abs(ix.bounds.MinY) + math.Abs(ix.bounds.MaxY) +
		ix.bounds.Width() + ix.bounds.Height())

	side := 1 << maxLevel
	cells := side * side
	n := ps.Len()
	ix.finW = ix.bounds.Width() / float64(side)
	ix.finH = ix.bounds.Height() / float64(side)

	// Counting sort of point ids into finest cells. The bucketing pass
	// walks the point source block by block (zero-copy for the in-RAM
	// set), so a segment-backed build touches one block's X and Y at a time.
	ix.start = make([]int32, cells+1)
	cellOf := make([]int32, n)
	err := data.WalkBlocks(ps.Source(), 0, n, data.Columns{}, func(blk *data.Block, bs, be int) error {
		base := blk.Base
		for i := bs; i < be; i++ {
			if i%buildPollStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			j := i - base
			c := ix.finestCell(blk.X[j], blk.Y[j])
			cellOf[i] = c
			ix.start[c+1]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c := 0; c < cells; c++ {
		ix.start[c+1] += ix.start[c]
	}
	ix.baseLen = n
	ix.order = make([]int32, n)
	cursor := make([]int32, cells)
	for i := 0; i < n; i++ {
		if i%buildPollStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c := cellOf[i]
		ix.order[ix.start[c]+cursor[c]] = int32(i)
		cursor[c]++
	}

	// Finest-level aggregates from the CSR groups, then coarser levels by
	// combining four children per parent.
	ix.counts = make([][]int64, maxLevel+1)
	fin := make([]int64, cells)
	for c := 0; c < cells; c++ {
		fin[c] = int64(ix.start[c+1] - ix.start[c])
	}
	ix.counts[maxLevel] = fin
	for l := maxLevel - 1; l >= 0; l-- {
		ix.counts[l] = reduceCounts(ix.counts[l+1], 1<<(l+1))
	}

	for _, col := range ps.Attrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ap := &attrPyr{
			col:  col.Values,
			sums: make([][]float64, maxLevel+1),
			mins: make([][]float64, maxLevel+1),
			maxs: make([][]float64, maxLevel+1),
		}
		sums := make([]float64, cells)
		mins := make([]float64, cells)
		maxs := make([]float64, cells)
		for c := 0; c < cells; c++ {
			lo, hi := ix.start[c], ix.start[c+1]
			if lo == hi {
				continue
			}
			var ks fsum.Kahan
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, id := range ix.order[lo:hi] {
				v := col.Values[id]
				ks.Add(v)
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			sums[c], mins[c], maxs[c] = ks.Sum(), mn, mx
		}
		ap.sums[maxLevel], ap.mins[maxLevel], ap.maxs[maxLevel] = sums, mins, maxs
		for l := maxLevel - 1; l >= 0; l-- {
			ap.sums[l], ap.mins[l], ap.maxs[l] =
				reduceAttr(ap.sums[l+1], ap.mins[l+1], ap.maxs[l+1],
					ix.counts[l+1], 1<<(l+1))
		}
		ix.attrs[col.Name] = ap
	}
	return ix, nil
}

// reduceCounts combines a level of side childSide into its parent level.
func reduceCounts(child []int64, childSide int) []int64 {
	side := childSide / 2
	out := make([]int64, side*side)
	for cy := 0; cy < side; cy++ {
		for cx := 0; cx < side; cx++ {
			out[cy*side+cx] = child[(2*cy)*childSide+2*cx] +
				child[(2*cy)*childSide+2*cx+1] +
				child[(2*cy+1)*childSide+2*cx] +
				child[(2*cy+1)*childSide+2*cx+1]
		}
	}
	return out
}

// reduceAttr combines one attribute level into its parent: sums are
// compensated across the four children, min/max only consider non-empty
// children.
func reduceAttr(sums, mins, maxs []float64, counts []int64, childSide int) (s, mn, mx []float64) {
	side := childSide / 2
	s = make([]float64, side*side)
	mn = make([]float64, side*side)
	mx = make([]float64, side*side)
	for cy := 0; cy < side; cy++ {
		for cx := 0; cx < side; cx++ {
			var ks fsum.Kahan
			cmn, cmx := math.Inf(1), math.Inf(-1)
			for _, ci := range [4]int{
				(2 * cy * childSide) + 2*cx,
				(2 * cy * childSide) + 2*cx + 1,
				((2*cy + 1) * childSide) + 2*cx,
				((2*cy + 1) * childSide) + 2*cx + 1,
			} {
				if counts[ci] == 0 {
					continue
				}
				ks.Add(sums[ci])
				if mins[ci] < cmn {
					cmn = mins[ci]
				}
				if maxs[ci] > cmx {
					cmx = maxs[ci]
				}
			}
			p := cy*side + cx
			s[p] = ks.Sum()
			mn[p], mx[p] = cmn, cmx
		}
	}
	return s, mn, mx
}

// finestCell returns the finest-level cell index of world point (x, y),
// clamped into the grid (points exactly on the max edge land in the last
// cell, matching raster.PixelMap.Map's rule).
func (ix *Index) finestCell(x, y float64) int32 {
	side := 1 << ix.maxLevel
	cx := int((x - ix.bounds.MinX) / ix.finW)
	cy := int((y - ix.bounds.MinY) / ix.finH)
	if cx < 0 {
		cx = 0
	}
	if cx >= side {
		cx = side - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= side {
		cy = side - 1
	}
	return int32(cy*side + cx)
}

// cellBox returns the world box of cell (cx, cy) at the given level.
// Child boxes nest exactly: the cell width at level L+1 is the exact
// floating-point half of level L's (power-of-two division), so
// 2cx·(w/2) and cx·w round to the identical value.
func (ix *Index) cellBox(level, cx, cy int) geom.BBox {
	side := float64(int(1) << level)
	cw := ix.bounds.Width() / side
	ch := ix.bounds.Height() / side
	return geom.BBox{
		MinX: ix.bounds.MinX + float64(cx)*cw,
		MinY: ix.bounds.MinY + float64(cy)*ch,
		MaxX: ix.bounds.MinX + float64(cx+1)*cw,
		MaxY: ix.bounds.MinY + float64(cy+1)*ch,
	}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int {
	if ix.empty {
		return 0
	}
	return len(ix.order) + len(ix.tailOrder)
}

// CellWidth returns the finest-level cell's world width.
func (ix *Index) CellWidth() float64 {
	return ix.bounds.Width() / float64(int(1)<<ix.maxLevel)
}

// Bytes estimates the resident size of the hierarchy.
func (ix *Index) Bytes() int {
	b := len(ix.start)*4 + len(ix.order)*4 + len(ix.tailStart)*4 + len(ix.tailOrder)*4
	for _, l := range ix.counts {
		b += len(l) * 8
	}
	for _, ap := range ix.attrs {
		for li := range ap.sums {
			b += (len(ap.sums[li]) + len(ap.mins[li]) + len(ap.maxs[li])) * 8
		}
	}
	return b
}

// String implements fmt.Stringer.
func (ix *Index) String() string {
	return fmt.Sprintf("geoblocks.Index{points=%d maxLevel=%d bytes=%d}",
		ix.Len(), ix.maxLevel, ix.Bytes())
}
