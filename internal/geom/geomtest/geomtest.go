// Package geomtest holds the geometry that tests share and no kernel runs:
// regular polygons to build layers from, a tolerance comparison of points,
// and the closed point-in-polygon reference the raster tests check interior
// pixels against. Only tests import it.
package geomtest

import (
	"math"

	"repro/internal/geom"
)

// RegularRing returns an n-vertex regular polygon ring of the given radius
// centered at c, counter-clockwise, starting at angle 0. n < 3 is clamped
// to 3.
func RegularRing(c geom.Point, radius float64, n int) geom.Ring {
	n = max(n, 3)
	r := make(geom.Ring, n)
	for i := range r {
		theta := 2 * math.Pi * float64(i) / float64(n)
		r[i] = geom.Point{X: c.X + radius*math.Cos(theta), Y: c.Y + radius*math.Sin(theta)}
	}
	return r
}

// NearEq reports whether p and q are within eps of each other in both
// coordinates.
func NearEq(p, q geom.Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

// ContainsBoundary reports whether p is inside pg or within eps of any of
// its rings' edges: closed containment, where geom.Polygon.Contains may
// classify a boundary point either way.
func ContainsBoundary(pg geom.Polygon, p geom.Point, eps float64) bool {
	if pg.Contains(p) {
		return true
	}
	for _, r := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
		for i, a := range r {
			if geom.SegmentDistSq(p, a, r[(i+1)%len(r)]) <= eps*eps {
				return true
			}
		}
	}
	return false
}
