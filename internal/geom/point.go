// Package geom provides the planar geometry primitives that underpin the
// spatial aggregation pipeline: points, bounding boxes, polygons with holes,
// exact point-in-polygon tests, clipping, triangulation, and simplification.
//
// All coordinates are float64 in an arbitrary planar coordinate system; the
// higher layers use Web-Mercator meters (see internal/mercator). Polygons
// follow the GeoJSON-like convention of an outer ring plus zero or more hole
// rings; rings are stored without a repeated closing vertex.
package geom

import "math"

// Point is a location in the plane. It doubles as a 2D vector.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Eq reports whether p and q are exactly equal.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// NearEq reports whether p and q are within eps of each other in both
// coordinates.
func (p Point) NearEq(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

// Orientation classifies the turn formed by a→b→c.
// It returns +1 for a counter-clockwise turn, -1 for clockwise, and 0 when
// the three points are collinear.
func Orientation(a, b, c Point) int {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// SegmentDistSq returns the squared distance from point p to segment ab.
func SegmentDistSq(p, a, b Point) float64 {
	ab := b.Sub(a)
	l2 := ab.Dot(ab)
	if l2 == 0 {
		return p.DistSq(a)
	}
	t := p.Sub(a).Dot(ab) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.DistSq(a.Add(ab.Scale(t)))
}

// OnSegment reports whether p lies on the closed segment ab, within eps.
func OnSegment(p, a, b Point, eps float64) bool {
	return SegmentDistSq(p, a, b) <= eps*eps
}
