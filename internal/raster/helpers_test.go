package raster

import (
	"math"
	"math/bits"

	"repro/internal/geom"
)

// Pixel and bitmap helpers only tests use: the point pass maps through
// PixelMap and the compiled layers replay FillPolygonSpans.

// Clear unmarks all pixels, retaining the allocation.
func (b *Bitmap) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of marked pixels.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// FillPolygon scan-converts a polygon (outer ring and holes) onto the grid,
// calling visit for every pixel whose center lies inside the polygon, in
// row-major order. This is the same center-sampling coverage rule the GPU
// rasterizer applies when Raster Join draws its polygon pass.
//
// Holes are handled by the even-odd rule: hole edges flip coverage exactly
// like outer edges.
func FillPolygon(t Transform, pg geom.Polygon, visit func(px, py int)) {
	FillPolygonSpans(t, pg, func(py, x0, x1 int) {
		for px := x0; px < x1; px++ {
			visit(px, py)
		}
	})
}

// PixelDiagonal returns the world-space diagonal of one pixel — the
// worst-case distance between a point in a pixel and the pixel's far corner,
// which bounds Raster Join's misassignment distance.
func (t Transform) PixelDiagonal() float64 {
	return math.Hypot(t.PixelWidth(), t.PixelHeight())
}

// ToPixel maps a world point to its containing pixel. ok is false when the
// point is outside the window. Points exactly on the max edge map to the
// last pixel.
func (t Transform) ToPixel(p geom.Point) (px, py int, ok bool) {
	m := t.PixelMap()
	return m.Map(p.X, p.Y)
}

// PixelCenter returns the world coordinates of the center of pixel (px,py).
func (t Transform) PixelCenter(px, py int) geom.Point {
	return geom.Point{
		X: t.World.MinX + (float64(px)+0.5)*t.PixelWidth(),
		Y: t.World.MinY + (float64(py)+0.5)*t.PixelHeight(),
	}
}

// PixelBox returns the world-space extent of pixel (px,py).
func (t Transform) PixelBox(px, py int) geom.BBox {
	pw, ph := t.PixelWidth(), t.PixelHeight()
	x := t.World.MinX + float64(px)*pw
	y := t.World.MinY + float64(py)*ph
	return geom.BBox{MinX: x, MinY: y, MaxX: x + pw, MaxY: y + ph}
}

// Index returns the row-major index of pixel (px,py).
func (t Transform) Index(px, py int) int { return py*t.W + px }

// BoundarySlots returns the slots of Boundary(k)'s pixels, position for
// position.
func (rs *RegionSpans) BoundarySlots(k int) []int32 {
	var slots []int32
	for _, idx := range rs.Boundary(k) {
		slots = append(slots, rs.PixelSlot(idx))
	}
	return slots
}
