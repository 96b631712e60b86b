// Package index implements the geometric baselines Raster Join is compared
// against: a brute-force join, a uniform-grid point index and an
// STR-packed R-tree, each with a Joiner adapter over the shared
// Request/Result vocabulary in internal/core.
//
// The index join family is the paper's comparison point: index one side,
// probe with the other, and resolve every candidate with an exact
// point-in-polygon test. It is exact but candidate-bound; Raster Join
// trades bounded approximation for rasterized bulk assignment.
package index

import (
	"math"

	"repro/internal/data"
	"repro/internal/geom"
)

// GridIndex is a uniform grid over a point set: each cell holds the indices
// of the points inside it. The GPU index-join baseline in the paper uses the
// same structure.
type GridIndex struct {
	ps     *data.PointSet
	bounds geom.BBox
	nx, ny int
	cw, ch float64
	// CSR layout: ids[start[c]:start[c+1]] are the points of cell c.
	start []int32
	ids   []int32
}

// BuildGrid indexes the point set on an n×n grid over its bounds. n is
// clamped to at least 1. Points on the max edges land in the last cells.
func BuildGrid(ps *data.PointSet, n int) *GridIndex {
	if n < 1 {
		n = 1
	}
	g := &GridIndex{ps: ps, bounds: ps.Bounds(), nx: n, ny: n}
	if g.bounds.IsEmpty() {
		g.start = make([]int32, 2)
		g.nx, g.ny = 1, 1
		g.cw, g.ch = 1, 1
		return g
	}
	g.cw = g.bounds.Width() / float64(n)
	g.ch = g.bounds.Height() / float64(n)
	if g.cw == 0 {
		g.cw = 1
	}
	if g.ch == 0 {
		g.ch = 1
	}

	cells := n * n
	count := make([]int32, cells+1)
	cellOf := make([]int32, ps.Len())
	for i := 0; i < ps.Len(); i++ {
		c := int32(g.cellAt(ps.X[i], ps.Y[i]))
		cellOf[i] = c
		count[c+1]++
	}
	for c := 0; c < cells; c++ {
		count[c+1] += count[c]
	}
	g.start = count
	g.ids = make([]int32, ps.Len())
	fill := make([]int32, cells)
	for i := 0; i < ps.Len(); i++ {
		c := cellOf[i]
		g.ids[g.start[c]+fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// PointSet returns the indexed point set.
func (g *GridIndex) PointSet() *data.PointSet { return g.ps }

// cellAt maps a coordinate (known to be inside bounds) to its cell index.
func (g *GridIndex) cellAt(x, y float64) int {
	cx := int((x - g.bounds.MinX) / g.cw)
	cy := int((y - g.bounds.MinY) / g.ch)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cy*g.nx + cx
}

// Cell returns the point indices stored in cell c.
func (g *GridIndex) Cell(c int) []int32 { return g.ids[g.start[c]:g.start[c+1]] }

// CandidatesInBBox calls visit for every point index whose cell overlaps
// the box. Candidates are a superset of the points inside the box.
func (g *GridIndex) CandidatesInBBox(b geom.BBox, visit func(id int32)) {
	b = b.Intersect(g.bounds)
	if b.IsEmpty() {
		return
	}
	x0 := clampCell(int((b.MinX-g.bounds.MinX)/g.cw), g.nx)
	x1 := clampCell(int((b.MaxX-g.bounds.MinX)/g.cw), g.nx)
	y0 := clampCell(int((b.MinY-g.bounds.MinY)/g.ch), g.ny)
	y1 := clampCell(int((b.MaxY-g.bounds.MinY)/g.ch), g.ny)
	for cy := y0; cy <= y1; cy++ {
		base := cy * g.nx
		for cx := x0; cx <= x1; cx++ {
			for _, id := range g.Cell(base + cx) {
				visit(id)
			}
		}
	}
}

func clampCell(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// DefaultGridSide picks a grid resolution giving ~16 points per occupied
// cell for the given cardinality, the regime where probe cost is balanced
// against cell overhead.
func DefaultGridSide(n int) int {
	if n < 1 {
		return 1
	}
	side := int(math.Sqrt(float64(n) / 16))
	if side < 16 {
		side = 16
	}
	if side > 2048 {
		side = 2048
	}
	return side
}
