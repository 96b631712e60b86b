package geom

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fsum"
)

// Ring is a closed sequence of vertices. The closing edge from the last
// vertex back to the first is implicit; rings do not repeat their first
// vertex.
type Ring []Point

// SignedArea returns the signed area of the ring: positive when the ring is
// counter-clockwise, negative when clockwise.
func (r Ring) SignedArea() float64 {
	if len(r) < 3 {
		return 0
	}
	// The shoelace sum cancels heavily for far-from-origin coordinates
	// (web-mercator meters), so accumulate with compensation.
	var s fsum.Kahan
	for i, p := range r {
		q := r[(i+1)%len(r)]
		s.Add(p.Cross(q))
	}
	return s.Sum() / 2
}

// Area returns the absolute area enclosed by the ring.
func (r Ring) Area() float64 {
	a := r.SignedArea()
	if a < 0 {
		return -a
	}
	return a
}

// IsCCW reports whether the ring winds counter-clockwise.
func (r Ring) IsCCW() bool { return r.SignedArea() > 0 }

// Reverse reverses the winding order of the ring in place.
func (r Ring) Reverse() {
	for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
		r[i], r[j] = r[j], r[i]
	}
}

// Clone returns a deep copy of the ring.
func (r Ring) Clone() Ring {
	c := make(Ring, len(r))
	copy(c, r)
	return c
}

// BBox returns the bounding box of the ring's vertices.
func (r Ring) BBox() BBox { return BBoxOf(r...) }

// Contains reports whether p is strictly inside the ring, using the crossing
// number (even-odd) rule. Points exactly on the boundary may be classified
// either way.
func (r Ring) Contains(p Point) bool {
	if len(r) < 3 {
		return false
	}
	inside := false
	j := len(r) - 1
	for i := 0; i < len(r); i++ {
		a, b := r[i], r[j]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			// x coordinate of the edge at height p.Y
			x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < x {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// Polygon is a simple polygon with optional holes. The outer ring should
// wind counter-clockwise and holes clockwise; Normalize enforces this.
type Polygon struct {
	Outer Ring
	Holes []Ring
}

// NewPolygon returns a polygon over the given outer ring with no holes.
func NewPolygon(outer Ring) Polygon { return Polygon{Outer: outer} }

// ErrDegenerate is returned by Validate for polygons whose outer ring has
// fewer than three vertices or zero area.
var ErrDegenerate = errors.New("geom: degenerate polygon")

// Validate returns an error when the polygon cannot participate in area
// computations: fewer than three outer vertices, or zero outer area.
func (pg Polygon) Validate() error {
	if len(pg.Outer) < 3 {
		return fmt.Errorf("%w: outer ring has %d vertices", ErrDegenerate, len(pg.Outer))
	}
	if pg.Outer.Area() == 0 {
		return fmt.Errorf("%w: outer ring has zero area", ErrDegenerate)
	}
	for i, h := range pg.Holes {
		if len(h) < 3 {
			return fmt.Errorf("%w: hole %d has %d vertices", ErrDegenerate, i, len(h))
		}
	}
	return nil
}

// Normalize orients the outer ring counter-clockwise and all holes
// clockwise, in place.
func (pg *Polygon) Normalize() {
	if !pg.Outer.IsCCW() {
		pg.Outer.Reverse()
	}
	for _, h := range pg.Holes {
		if h.IsCCW() {
			h.Reverse()
		}
	}
}

// Clone returns a deep copy of the polygon.
func (pg Polygon) Clone() Polygon {
	c := Polygon{Outer: pg.Outer.Clone()}
	if len(pg.Holes) > 0 {
		c.Holes = make([]Ring, len(pg.Holes))
		for i, h := range pg.Holes {
			c.Holes[i] = h.Clone()
		}
	}
	return c
}

// BBox returns the bounding box of the polygon's outer ring.
func (pg Polygon) BBox() BBox { return pg.Outer.BBox() }

// VertexCount returns the total number of vertices across all rings.
func (pg Polygon) VertexCount() int {
	n := len(pg.Outer)
	for _, h := range pg.Holes {
		n += len(h)
	}
	return n
}

// Contains reports whether p is inside the polygon: inside the outer ring
// and outside every hole.
func (pg Polygon) Contains(p Point) bool {
	if !pg.Outer.Contains(p) {
		return false
	}
	for _, h := range pg.Holes {
		if h.Contains(p) {
			return false
		}
	}
	return true
}

// Edges calls fn for every directed edge of every ring (outer and holes).
// Iteration stops early when fn returns false.
func (pg Polygon) Edges(fn func(a, b Point) bool) {
	emit := func(r Ring) bool {
		for i, a := range r {
			b := r[(i+1)%len(r)]
			if !fn(a, b) {
				return false
			}
		}
		return true
	}
	if !emit(pg.Outer) {
		return
	}
	for _, h := range pg.Holes {
		if !emit(h) {
			return
		}
	}
}

// RectRing returns the counter-clockwise ring of the bounding box b.
func RectRing(b BBox) Ring {
	c := b.Corners()
	return Ring{c[0], c[1], c[2], c[3]}
}

// StarRing returns a 2n-vertex star-shaped (strongly non-convex) ring
// centered at c alternating between outer and inner radii.
func StarRing(c Point, outer, inner float64, n int) Ring {
	if n < 3 {
		n = 3
	}
	r := make(Ring, 2*n)
	for i := 0; i < 2*n; i++ {
		theta := math.Pi * float64(i) / float64(n)
		rad := outer
		if i%2 == 1 {
			rad = inner
		}
		r[i] = Point{c.X + rad*math.Cos(theta), c.Y + rad*math.Sin(theta)}
	}
	return r
}
