package raster

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// Member is the membership record of one boundary position: region k at
// one of its own boundary pixels. For every point that lands in that pixel
// it answers Polygon.Contains bit for bit, from only the edges that can
// change the answer there.
//
// The record is a list of groups, the outer ring's first. A group is a
// header word — a parity bit, a hole flag, an end flag and, from bit 3 on,
// the number of local edges (15 bits) and of endpoint ys (14 bits) —
// followed by the local edges and the ys, each a vertex index. A ring with
// more of either than a header counts spans several groups, and only its
// last has the end flag: the parities of a ring's groups add up, by XOR,
// to the ring's. Edge e runs from verts[e] to verts[e-1], the orientation
// Ring.Contains visits it in: every ring is stored behind a copy of its
// last vertex, so its closing edge follows the same rule. An empty record
// answers false for every point: the outer ring's parity is 0 throughout
// the pixel.
type Member struct {
	verts []geom.Point
	words []uint32
}

// Member returns the record of position q of the concatenation of every
// region's Boundary list.
func (rs *RegionSpans) Member(q int32) Member {
	return Member{verts: rs.verts, words: rs.member[rs.memberStart[q]:rs.memberStart[q+1]]}
}

// The group header: bit 0 is the parity, bit 1 the hole flag and bit 2
// the end flag; the counts follow.
const (
	headerLocal           = 3
	headerYs              = 18
	maxLocal, maxYs       = 1<<(headerYs-headerLocal) - 1, 1<<(32-headerYs) - 1
	headerHole, headerEnd = 2, 4
)

// counts returns a group header's numbers of local edges and ys.
func counts(h uint32) (nl, ny int) { return int(h >> headerLocal & maxLocal), int(h >> headerYs) }

// Local returns the number of local edges, which is the number of crossing
// tests Contains makes.
func (m Member) Local() int {
	n := 0
	for w := m.words; len(w) > 0; {
		nl, ny := counts(w[0])
		n += nl
		w = w[1+nl+ny:]
	}
	return n
}

// Contains reports whether p — a point in the record's pixel — is inside
// the region. Per ring it is Ring.Contains' parity: the constant bit, which
// stands for the edges right of the pixel whose endpoints lie outside the
// pixel's row; one bit per endpoint y in the row, set when the y is above
// p; and the local edges' crossing test with Ring.Contains' arithmetic.
// Then, as Polygon.Contains, the outer ring's parity with every hole's
// cleared.
//
// Nothing branches on a point's coordinates. The straddle and crossing
// terms are both computed and ANDed: where the edge does not straddle p.Y
// the quotient may be ±Inf or NaN (a horizontal edge divides by zero), but
// it only decides a bit the straddle term then clears, so every Boolean is
// the one Ring.Contains computes behind its branch.
func (m Member) Contains(p geom.Point) bool {
	verts, w := m.verts, m.words
	var in, hole, odd uint8
	for len(w) > 0 {
		h := w[0]
		nl, ny := counts(h)
		edges, ys := w[1:1+nl], w[1+nl:1+nl+ny]
		w = w[1+nl+ny:]
		odd ^= uint8(h & 1)
		for _, e := range edges {
			a, b := verts[e], verts[e-1]
			straddle := (a.Y > p.Y) != (b.Y > p.Y)
			cross := p.X < a.X+(p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			odd ^= b2u(straddle) & b2u(cross)
		}
		for _, v := range ys {
			odd ^= b2u(verts[v].Y > p.Y)
		}
		end, isHole := uint8(h/headerEnd&1), uint8(h/headerHole&1)
		in |= odd & end &^ isHole
		hole |= odd & end & isHole
		odd &^= end
	}
	return in&^hole != 0
}

// b2u is 1 for true and 0 for false; the compiler lowers it to the flag
// byte the comparison already produced, without a branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// memberCompiler is CompileRegions' scratch for the membership records of
// one region at a time: the region's edges tabled by canvas row, each
// edge's column bounds and each vertex's row. Nothing of it is retained.
type memberCompiler struct {
	// Row row0+i's edges are edge[off[i]:off[i+1]], ascending, so ring by
	// ring.
	row0      int
	off, edge []int32
	// cls[e-base] and vrow[v-base] are edge e's class and vertex v's row,
	// where base is the region's first vertex.
	cls       []edgeClass
	vrow      []int32
	local, ys []uint32
}

// edgeClass places an edge relative to a pixel column px: left of it when
// hi < px, right of it when lo > px, local otherwise. A horizontal edge is
// left of every column, and an edge whose crossing the rounding margin does
// not bound is local at every column.
type edgeClass struct{ lo, hi int32 }

// classify bounds edge (a, b)'s crossing with a pixel column.
//
// Where the edge straddles y, Ring.Contains computes its crossing as
// xc = a.X + (y-a.Y)*(b.X-a.X)/(b.Y-a.Y). The exact value lies in
// [min(a.X, b.X), max(a.X, b.X)], because the straddle puts t =
// (y-a.Y)/(b.Y-a.Y) in [0, 1]. Each of the five operations rounds once, by
// a relative 2^-53 — y-a.Y and b.Y-a.Y are exact when subnormal — so with
// M = max(|a.X|, |b.X|) the computed xc is within 11.2·2^-53·M of the
// exact one. Every coordinate is at most 2^500 in magnitude, so nothing
// overflows; |b.Y-a.Y| is at least 2^-500, so an underflowing product
// (off by 2^-1075) moves the quotient by at most 2^-575. The margin
// 2^-48·M + 2^-560 covers both, and the rounding of min - margin and
// max + margin, with room to spare. An edge outside those bounds is local
// everywhere, and so is any non-finite one.
//
// Col is monotone, so a point in column px with Col(lo) > px has p.X < lo
// <= xc: the crossing test passes and only the straddle bit counts. One
// with Col(hi) < px has p.X > hi >= xc: the test fails and the edge drops
// out. A horizontal edge never straddles, so it drops out everywhere.
func classify(t Transform, a, b geom.Point) edgeClass {
	if a.Y == b.Y {
		return edgeClass{lo: -1, hi: -1}
	}
	const big, tiny = 0x1p500, 0x1p-500
	m := max(math.Abs(a.X), math.Abs(b.X))
	if !(m <= big && math.Abs(a.Y) <= big && math.Abs(b.Y) <= big && math.Abs(b.Y-a.Y) >= tiny) {
		return edgeClass{lo: -1, hi: int32(t.W)}
	}
	margin := 0x1p-48*m + 0x1p-560
	return edgeClass{lo: int32(t.Col(min(a.X, b.X) - margin)), hi: int32(t.Col(max(a.X, b.X) + margin))}
}

// region appends pg's rings to the layer's vertex list, each behind a copy
// of its last vertex, and compiles one membership record per pixel of
// bound, region k's Boundary list. Rings with fewer than three vertices are
// left out, as Ring.Contains ignores them; without an outer ring the region
// keeps none, and every record is empty.
//
// A record keeps, per ring, the ring's edges in the pixel's row — an edge
// touches rows [Row(minY), Row(maxY)], and one that straddles the y of a
// point in the row touches it, by the monotonicity of Row — in three
// groups (see classify): left edges are dropped; right edges contribute
// their straddle bits, whose XOR is the XOR over their endpoints of
// [v.Y > p.Y]; the rest are local. Row is monotone, so an endpoint whose
// row is above the pixel's has v.Y > p.Y for every point in the row, one
// below has v.Y <= p.Y: those fold into the ring's constant parity bit, and
// only the endpoints in the row are kept as ys, where two equal ys cancel.
func (mc *memberCompiler) region(rs *RegionSpans, t Transform, pg geom.Polygon, bound []int32) {
	base := int32(len(rs.verts))
	if len(pg.Outer) >= 3 {
		for _, ring := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
			if len(ring) >= 3 {
				rs.verts = append(append(rs.verts, ring[len(ring)-1]), ring...)
				rs.ringStart = append(rs.ringStart, int32(len(rs.verts)))
			}
		}
	}
	rs.regionRing = append(rs.regionRing, int32(len(rs.ringStart)-1))
	rings := rs.ringStart[rs.regionRing[len(rs.regionRing)-2]:]
	verts := rs.verts

	n := int(int32(len(verts)) - base)
	mc.vrow = slices.Grow(mc.vrow[:0], n)[:n]
	mc.cls = slices.Grow(mc.cls[:0], n)[:n]
	r0, r1 := t.H, -1
	for r := 0; r+1 < len(rings); r++ {
		for v := rings[r]; v < rings[r+1]; v++ {
			mc.vrow[v-base] = int32(t.Row(verts[v].Y))
		}
		for e := rings[r] + 1; e < rings[r+1]; e++ {
			mc.cls[e-base] = classify(t, verts[e], verts[e-1])
			lo, hi := mc.rows(e, base)
			r0, r1 = min(r0, lo), max(r1, hi)
		}
	}
	mc.table(rings, base, r0, r1)

	for _, idx := range bound {
		px, py := int32(int(idx)%t.W), int(idx)/t.W
		var list []int32
		if i := py - mc.row0; py >= r0 && py <= r1 {
			list = mc.edge[mc.off[i]:mc.off[i+1]]
		}
		for r := 0; r+1 < len(rings) && len(list) > 0; r++ {
			parity := uint32(0)
			mc.local, mc.ys = mc.local[:0], mc.ys[:0]
			for ; len(list) > 0 && list[0] < rings[r+1]; list = list[1:] {
				e := list[0]
				switch c := mc.cls[e-base]; {
				case c.hi < px:
				case c.lo > px:
					for _, v := range [2]int32{e, e - 1} {
						switch row := int(mc.vrow[v-base]); {
						case row > py:
							parity ^= 1
						case row == py:
							mc.ys = append(mc.ys, uint32(v))
						}
					}
				default:
					mc.local = append(mc.local, uint32(e))
				}
			}
			mc.ys = cancelPairs(verts, mc.ys)
			if parity == 0 && len(mc.local) == 0 && len(mc.ys) == 0 {
				if r == 0 {
					break // the outer ring's parity is 0 throughout the pixel
				}
				continue
			}
			flags := parity | uint32(min(r, 1))*headerHole
			for local, ys := mc.local, mc.ys; ; flags &^= 1 {
				nl, ny := min(len(local), maxLocal), min(len(ys), maxYs)
				h := flags | uint32(nl)<<headerLocal | uint32(ny)<<headerYs
				if nl == len(local) && ny == len(ys) {
					h |= headerEnd
				}
				rs.member = append(append(append(rs.member, h), local[:nl]...), ys[:ny]...)
				if local, ys = local[nl:], ys[ny:]; h&headerEnd != 0 {
					break
				}
			}
		}
		rs.memberStart = append(rs.memberStart, int32(len(rs.member)))
	}
}

// rows returns the rows edge e touches.
func (mc *memberCompiler) rows(e, base int32) (lo, hi int) {
	a, b := int(mc.vrow[e-base]), int(mc.vrow[e-1-base])
	return min(a, b), max(a, b)
}

// table lists the region's edges by the rows [r0, r1] they touch.
func (mc *memberCompiler) table(rings []int32, base int32, r0, r1 int) {
	mc.row0 = r0
	if r1 < r0 {
		return
	}
	mc.off = slices.Grow(mc.off[:0], r1-r0+2)[:r1-r0+2]
	clear(mc.off)
	each := func(fn func(e int32, lo, hi int)) {
		for r := 0; r+1 < len(rings); r++ {
			for e := rings[r] + 1; e < rings[r+1]; e++ {
				lo, hi := mc.rows(e, base)
				fn(e, lo, hi)
			}
		}
	}
	// off[i+1] counts row r0+i's edges, then becomes where row r0+i+1
	// starts; it ends as the cursor row r0+i's edges are written at.
	each(func(_ int32, lo, hi int) {
		for y := lo; y <= hi; y++ {
			mc.off[y-r0+1]++
		}
	})
	for i := 1; i < len(mc.off); i++ {
		mc.off[i] += mc.off[i-1]
	}
	n := int(mc.off[len(mc.off)-1])
	mc.edge = slices.Grow(mc.edge[:0], n)[:n]
	each(func(e int32, lo, hi int) {
		for y := lo; y <= hi; y++ {
			mc.edge[mc.off[y-r0]] = e
			mc.off[y-r0]++
		}
	})
	copy(mc.off[1:], mc.off)
	mc.off[0] = 0
}

// cancelPairs sorts ys by their vertices' y and removes equal pairs: two
// equal ys set the same bit for every point, and their XOR is 0.
func cancelPairs(verts []geom.Point, ys []uint32) []uint32 {
	if len(ys) < 2 {
		return ys
	}
	slices.SortFunc(ys, func(a, b uint32) int { return cmp.Compare(verts[a].Y, verts[b].Y) })
	out := ys[:0]
	for _, v := range ys {
		if n := len(out); n > 0 && verts[out[n-1]].Y == verts[v].Y {
			out = out[:n-1]
			continue
		}
		out = append(out, v)
	}
	return out
}
