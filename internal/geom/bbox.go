package geom

import (
	"fmt"
	"math"
)

// BBox is an axis-aligned bounding box. A box with Min > Max on either axis
// is empty; EmptyBBox returns the canonical empty box suitable as the
// identity for Union.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyBBox returns the identity element for Union: a box that contains
// nothing and extends any box it is unioned with.
func EmptyBBox() BBox {
	return BBox{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// NewBBox returns the box spanning the two corner points given in any order.
func NewBBox(x0, y0, x1, y1 float64) BBox {
	return BBox{
		MinX: math.Min(x0, x1), MinY: math.Min(y0, y1),
		MaxX: math.Max(x0, x1), MaxY: math.Max(y0, y1),
	}
}

// BBoxOf returns the bounding box of a set of points, or the empty box when
// pts is empty.
func BBoxOf(pts ...Point) BBox {
	b := EmptyBBox()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// Width returns the horizontal extent, or 0 for an empty box.
func (b BBox) Width() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxX - b.MinX
}

// Height returns the vertical extent, or 0 for an empty box.
func (b BBox) Height() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxY - b.MinY
}

// Area returns the area of the box, or 0 for an empty box.
func (b BBox) Area() float64 { return b.Width() * b.Height() }

// Center returns the center point of the box.
func (b BBox) Center() Point {
	return Point{(b.MinX + b.MaxX) / 2, (b.MinY + b.MaxY) / 2}
}

// Contains reports whether p lies inside the closed box.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Intersects reports whether the two closed boxes share at least one point.
func (b BBox) Intersects(o BBox) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX &&
		b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// Intersect returns the overlap of the two boxes (possibly empty).
func (b BBox) Intersect(o BBox) BBox {
	r := BBox{
		MinX: math.Max(b.MinX, o.MinX), MinY: math.Max(b.MinY, o.MinY),
		MaxX: math.Min(b.MaxX, o.MaxX), MaxY: math.Min(b.MaxY, o.MaxY),
	}
	if r.IsEmpty() {
		return EmptyBBox()
	}
	return r
}

// Union returns the smallest box containing both boxes.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return BBox{
		MinX: math.Min(b.MinX, o.MinX), MinY: math.Min(b.MinY, o.MinY),
		MaxX: math.Max(b.MaxX, o.MaxX), MaxY: math.Max(b.MaxY, o.MaxY),
	}
}

// ExtendPoint returns the smallest box containing b and p.
func (b BBox) ExtendPoint(p Point) BBox {
	if b.IsEmpty() {
		return BBox{p.X, p.Y, p.X, p.Y}
	}
	return BBox{
		MinX: math.Min(b.MinX, p.X), MinY: math.Min(b.MinY, p.Y),
		MaxX: math.Max(b.MaxX, p.X), MaxY: math.Max(b.MaxY, p.Y),
	}
}

// Expand returns the box grown by d on every side. A negative d shrinks the
// box; if it shrinks past empty the empty box is returned.
func (b BBox) Expand(d float64) BBox {
	if b.IsEmpty() {
		return b
	}
	r := BBox{b.MinX - d, b.MinY - d, b.MaxX + d, b.MaxY + d}
	if r.IsEmpty() {
		return EmptyBBox()
	}
	return r
}

// Corners returns the four corners in counter-clockwise order starting at
// (MinX, MinY).
func (b BBox) Corners() [4]Point {
	return [4]Point{
		{b.MinX, b.MinY}, {b.MaxX, b.MinY},
		{b.MaxX, b.MaxY}, {b.MinX, b.MaxY},
	}
}

// String implements fmt.Stringer.
func (b BBox) String() string {
	if b.IsEmpty() {
		return "BBox(empty)"
	}
	return fmt.Sprintf("BBox(%.6g,%.6g)-(%.6g,%.6g)", b.MinX, b.MinY, b.MaxX, b.MaxY)
}
