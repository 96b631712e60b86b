package raster

import "repro/internal/geom"

// RowEdges is one region's edges that touch one canvas row: the reference
// the membership records are compiled from and checked against. Edge e
// runs from verts[e] to verts[e-1]; rings[r] is where the region's ring r
// starts in verts (the copy of its last vertex; ring 0 is the outer ring,
// the last entry ends the last ring), and idx lists the row's edges in
// ascending order, so ring by ring.
type RowEdges struct {
	verts []geom.Point
	rings []int32
	idx   []int32
}

// RowEdges returns region k's edges that touch canvas row y: an edge
// touches rows [Row(minY), Row(maxY)].
func (rs *RegionSpans) RowEdges(k, y int) RowEdges {
	re := RowEdges{verts: rs.verts, rings: rs.ringStart[rs.regionRing[k] : rs.regionRing[k+1]+1]}
	for r := 0; r+1 < len(re.rings); r++ {
		for e := re.rings[r] + 1; e < re.rings[r+1]; e++ {
			lo, hi := rs.T.Row(rs.verts[e].Y), rs.T.Row(rs.verts[e-1].Y)
			if min(lo, hi) <= y && y <= max(lo, hi) {
				re.idx = append(re.idx, e)
			}
		}
	}
	return re
}

// Len returns the number of edges, which is the number of crossing tests
// Contains makes.
func (re RowEdges) Len() int { return len(re.idx) }

// Contains reports whether p — a point whose pixel lies in the row the
// edges were taken for — is inside the region. It is Polygon.Contains: the
// same crossing test with the same arithmetic, one parity bit per ring,
// over only the edges in the point's row. An edge that straddles p.Y has
// p.Y in its y-extent, so by the monotonicity of Transform.Row it touches
// the point's row; every edge left out would have been skipped by the
// straddle test, and parity is an XOR, so no Boolean changes.
func (re RowEdges) Contains(p geom.Point) bool {
	in := false
	r := 0
	for i := 0; i < len(re.idx); {
		for re.idx[i] >= re.rings[r+1] {
			r++
		}
		end := re.rings[r+1]
		odd := false
		for ; i < len(re.idx) && re.idx[i] < end; i++ {
			a, b := re.verts[re.idx[i]], re.verts[re.idx[i]-1]
			if (a.Y > p.Y) != (b.Y > p.Y) && p.X < a.X+(p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y) {
				odd = !odd
			}
		}
		if r == 0 {
			in = odd
		} else if odd {
			return false // inside a hole
		}
	}
	return in
}
