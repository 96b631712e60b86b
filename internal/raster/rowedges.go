package raster

import "repro/internal/geom"

// RowEdges is one region's edges that touch one canvas row. Edge e runs
// from verts[e] to the ring's previous vertex, the orientation Ring.Contains
// visits it in; rings[r] is where the region's ring r starts in verts
// (ring 0 is the outer ring, the last entry ends the last ring), and idx
// lists the row's edges in ascending order, so ring by ring.
type RowEdges struct {
	verts []geom.Point
	rings []int32
	idx   []int32
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
		first, end := re.rings[r], re.rings[r+1]
		odd := false
		for ; i < len(re.idx) && re.idx[i] < end; i++ {
			e := re.idx[i]
			j := e - 1
			if e == first {
				j = end - 1
			}
			a, b := re.verts[e], re.verts[j]
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

// tableEdges appends pg's rings to the layer's vertex list and lists its
// edges per canvas row: an edge touches rows [Row(minY), Row(maxY)]. Rings
// with fewer than three vertices are left out, as Ring.Contains ignores
// them; without an outer ring the region keeps none, as it contains no
// point. cursor is scratch, returned for reuse.
func (rs *RegionSpans) tableEdges(t Transform, pg geom.Polygon, cursor []int32) []int32 {
	if len(pg.Outer) >= 3 {
		for _, ring := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
			if len(ring) >= 3 {
				rs.verts = append(rs.verts, ring...)
				rs.ringStart = append(rs.ringStart, int32(len(rs.verts)))
			}
		}
	}
	rs.regionRing = append(rs.regionRing, int32(len(rs.ringStart)-1))

	// rows returns the rows edge e — in ring [first, end) — touches.
	rows := func(e, first, end int32) (int, int) {
		j := e - 1
		if e == first {
			j = end - 1
		}
		lo, hi := t.Row(rs.verts[e].Y), t.Row(rs.verts[j].Y)
		return min(lo, hi), max(lo, hi)
	}
	// each calls fn with every edge of the region and the rows it touches.
	rings := rs.ringStart[rs.regionRing[len(rs.regionRing)-2]:]
	each := func(fn func(e int32, lo, hi int)) {
		for r := 0; r+1 < len(rings); r++ {
			for e := rings[r]; e < rings[r+1]; e++ {
				lo, hi := rows(e, rings[r], rings[r+1])
				fn(e, lo, hi)
			}
		}
	}
	r0, r1 := t.H, -1
	each(func(_ int32, lo, hi int) { r0, r1 = min(r0, lo), max(r1, hi) })
	if r1 < r0 {
		rs.bandRow0 = append(rs.bandRow0, 0)
		rs.bandStart = append(rs.bandStart, int32(len(rs.bandOff)))
		return cursor
	}
	// off[i] counts row r0+i-1's edges, then becomes where row r0+i starts.
	o0 := len(rs.bandOff)
	rs.bandOff = append(rs.bandOff, make([]int32, r1-r0+2)...)
	off := rs.bandOff[o0:]
	each(func(_ int32, lo, hi int) {
		for y := lo; y <= hi; y++ {
			off[y-r0+1]++
		}
	})
	off[0] = int32(len(rs.bandEdge))
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	rs.bandEdge = append(rs.bandEdge, make([]int32, off[len(off)-1]-off[0])...)
	cursor = append(cursor[:0], off[:len(off)-1]...)
	each(func(e int32, lo, hi int) {
		for y := lo; y <= hi; y++ {
			rs.bandEdge[cursor[y-r0]] = e
			cursor[y-r0]++
		}
	})
	rs.bandRow0 = append(rs.bandRow0, int32(r0))
	rs.bandStart = append(rs.bandStart, int32(len(rs.bandOff)))
	return cursor
}
