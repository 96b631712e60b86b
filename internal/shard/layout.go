// Package shard implements spatially sharded scatter-gather execution: a
// cell-range sharding scheme that splits a dataset's points into N spatial
// shards along world-x cuts, and a coordinator that runs every shard's
// partial point pass over its block assignment in-process and merges the
// partials in deterministic shard order, so results are byte-identical to
// the unsharded path at any shard count (see internal/core's scatter driver
// for the full argument). No server path uses it; the benchmark's layer
// tier times it against the local join.
package shard

import (
	"math"

	"repro/internal/data"
)

// GridCols is the cell grid the cut chooser quantizes to: cuts land on
// boundaries of a fixed 256-column grid over the dataset's x extent, the
// same discipline GeoBlocks uses for its aggregation cells, so shard ranges
// are stable cell ranges rather than arbitrary floats.
const GridCols = 256

// Layout is one dataset's shard assignment: N ranges separated by N-1
// ascending cuts, plus each shard's ascending list of candidate blocks
// (blocks whose x zone intersects the shard's range — a block overlapping a
// cut appears in both neighbors, and the per-point ownership test keeps the
// halves disjoint).
type Layout struct {
	N      int
	Cuts   []float64
	Blocks [][]int
	// Stamp identifies the source snapshot the assignment was computed
	// for.
	Stamp uint64
}

// Range returns shard i's half-open world-x ownership range; the first and
// last shards extend to ±Inf so every point (and every appended point) has
// exactly one owner.
func (l *Layout) Range(i int) (xlo, xhi float64) {
	xlo, xhi = math.Inf(-1), math.Inf(1)
	if i > 0 {
		xlo = l.Cuts[i-1]
	}
	if i < l.N-1 {
		xhi = l.Cuts[i]
	}
	return xlo, xhi
}

// Build computes a layout for the source: a point-mass histogram over the
// cell grid (each block's length smeared across the cells its x zone
// covers) picks N-1 cuts at cell boundaries balancing estimated mass, then
// every block is assigned to the shards its x zone intersects. Zone maps
// are the only input — no point is decoded.
func Build(src data.PointSource, n int) *Layout {
	if n < 1 {
		n = 1
	}
	l := &Layout{N: n, Stamp: src.Stamp()}
	if n > 1 {
		l.Cuts = chooseCuts(src, n)
	}
	l.Blocks = assign(src, l)
	return l
}

// chooseCuts picks n-1 ascending cut positions at cell boundaries. A
// degenerate extent (empty source, single column, all-NaN zones) collapses
// every cut onto the same boundary: a single shard then owns everything and
// the others legally own empty ranges.
func chooseCuts(src data.PointSource, n int) []float64 {
	minX, maxX := math.Inf(1), math.Inf(-1)
	nb := src.NumBlocks()
	for b := 0; b < nb; b++ {
		z := src.Zone(b)
		if z.X.Min > z.X.Max {
			continue // all-NaN block: no finite x
		}
		if z.X.Min < minX {
			minX = z.X.Min
		}
		if z.X.Max > maxX {
			maxX = z.X.Max
		}
	}
	cuts := make([]float64, n-1)
	if !(minX < maxX) {
		for i := range cuts {
			cuts[i] = minX // degenerate: may be ±Inf or a single column
		}
		return cuts
	}
	cell := (maxX - minX) / GridCols
	hist := make([]float64, GridCols)
	var total float64
	for b := 0; b < nb; b++ {
		z := src.Zone(b)
		if z.X.Min > z.X.Max {
			continue
		}
		blo, bhi := src.BlockSpan(b)
		mass := float64(bhi - blo)
		c0 := cellOf(z.X.Min, minX, cell)
		c1 := cellOf(z.X.Max, minX, cell)
		share := mass / float64(c1-c0+1)
		for c := c0; c <= c1; c++ {
			hist[c] += share
		}
		//lint:ignore floataccum block lengths are exactly-representable integers and total stays < 2^53, so the sum is exact
		total += mass
	}
	// Walk the prefix sum; cut at the first cell boundary past each
	// i/n-quantile. Cuts are non-decreasing by construction.
	var cum float64
	c := 0
	for i := 1; i < n; i++ {
		target := total * float64(i) / float64(n)
		for c < GridCols-1 && cum+hist[c] < target {
			cum += hist[c]
			c++
		}
		cuts[i-1] = minX + float64(c)*cell
	}
	return cuts
}

// cellOf maps world-x into the cut grid, clamped.
func cellOf(x, minX, cell float64) int {
	c := int((x - minX) / cell)
	if c < 0 {
		c = 0
	}
	if c >= GridCols {
		c = GridCols - 1
	}
	return c
}

// assign lists, per shard, the ascending block indices whose x zone
// intersects the shard's ownership range. All-NaN blocks are assigned
// nowhere: their points are canvas-culled on every path.
func assign(src data.PointSource, l *Layout) [][]int {
	blocks := make([][]int, l.N)
	nb := src.NumBlocks()
	for b := 0; b < nb; b++ {
		z := src.Zone(b)
		if z.X.Min > z.X.Max {
			continue
		}
		for i := 0; i < l.N; i++ {
			xlo, xhi := l.Range(i)
			if z.X.Max < xlo || z.X.Min >= xhi {
				continue
			}
			blocks[i] = append(blocks[i], b)
		}
	}
	return blocks
}
