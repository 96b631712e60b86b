// Package raster implements the scan-conversion engine of the software GPU:
// world-to-pixel transforms, scanline polygon fill with pixel-center
// coverage (the sampling rule real GPUs use), conservative boundary
// rasterization, and grid traversal of segments.
//
// Raster Join's approximation semantics come directly from the coverage
// rule implemented here: a pixel belongs to a polygon iff the pixel's
// center is inside the polygon, exactly as the OpenGL rasterizer decides
// fragment coverage for the paper's polygon-rendering pass.
package raster

import (
	"math"

	"repro/internal/geom"
)

// Transform maps a rectangular world window onto a W×H pixel grid. Pixel
// (0,0) is the lower-left cell; pixel centers sit at half-integer offsets.
type Transform struct {
	World geom.BBox
	W, H  int
}

// NewTransform returns a transform over the given window. Width and height
// must be positive; the window must be non-empty.
func NewTransform(world geom.BBox, w, h int) Transform {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return Transform{World: world, W: w, H: h}
}

// SquareTransform returns a transform whose pixels are square with the given
// world-unit side length, covering (at least) the window. The window is
// expanded rightward/upward to an exact multiple of the pixel size.
func SquareTransform(world geom.BBox, pixelSize float64) Transform {
	if pixelSize <= 0 || world.IsEmpty() {
		return NewTransform(world, 1, 1)
	}
	w := int(math.Ceil(world.Width() / pixelSize))
	h := int(math.Ceil(world.Height() / pixelSize))
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	grown := geom.BBox{
		MinX: world.MinX, MinY: world.MinY,
		MaxX: world.MinX + float64(w)*pixelSize,
		MaxY: world.MinY + float64(h)*pixelSize,
	}
	return Transform{World: grown, W: w, H: h}
}

// PixelWidth returns the world-space width of one pixel.
func (t Transform) PixelWidth() float64 { return t.World.Width() / float64(t.W) }

// PixelHeight returns the world-space height of one pixel.
func (t Transform) PixelHeight() float64 { return t.World.Height() / float64(t.H) }

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
	if !t.World.Contains(p) {
		return 0, 0, false
	}
	return t.Col(p.X), t.Row(p.Y), true
}

// Col returns the pixel column world x falls into, clamped to the grid
// (NaN maps to column 0). It is ToPixel's column for every in-window point,
// and it is monotone non-decreasing in x.
func (t Transform) Col(x float64) int { return cell((x-t.World.MinX)/t.PixelWidth(), t.W) }

// Row returns the pixel row world y falls into, clamped to the grid (NaN
// maps to row 0). It is ToPixel's row for every in-window point, and it is
// monotone non-decreasing in y: a segment whose y-extent contains a point's
// y touches the point's row in [Row(minY), Row(maxY)].
func (t Transform) Row(y float64) int { return cell((y-t.World.MinY)/t.PixelHeight(), t.H) }

// cell truncates the fractional cell position f into [0, n). Comparing in
// floating point first keeps an out-of-range f from reaching the
// float-to-int conversion, whose result Go leaves to the implementation.
func cell(f float64, n int) int {
	switch {
	case f >= float64(n):
		return n - 1
	case f >= 1:
		return int(f)
	}
	return 0
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

// ClampPixel clamps pixel coordinates into the grid.
func (t Transform) ClampPixel(px, py int) (int, int) {
	if px < 0 {
		px = 0
	} else if px >= t.W {
		px = t.W - 1
	}
	if py < 0 {
		py = 0
	} else if py >= t.H {
		py = t.H - 1
	}
	return px, py
}

// Index returns the row-major index of pixel (px,py).
func (t Transform) Index(px, py int) int { return py*t.W + px }

// Sub returns a transform over the sub-rectangle of pixels
// [x0,x0+w) × [y0,y0+h), used for tiled multi-pass rendering.
func (t Transform) Sub(x0, y0, w, h int) Transform {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x0+w > t.W {
		w = t.W - x0
	}
	if y0+h > t.H {
		h = t.H - y0
	}
	pw, ph := t.PixelWidth(), t.PixelHeight()
	return Transform{
		World: geom.BBox{
			MinX: t.World.MinX + float64(x0)*pw,
			MinY: t.World.MinY + float64(y0)*ph,
			MaxX: t.World.MinX + float64(x0+w)*pw,
			MaxY: t.World.MinY + float64(y0+h)*ph,
		},
		W: w, H: h,
	}
}
