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

// Col returns the pixel column world x falls into, clamped to the grid
// (NaN maps to column 0). It is PixelMap.Map's column for every in-window
// point, and it is monotone non-decreasing in x.
func (t Transform) Col(x float64) int { return cell((x-t.World.MinX)/t.PixelWidth(), t.W) }

// Row returns the pixel row world y falls into, clamped to the grid (NaN
// maps to row 0). It is PixelMap.Map's row for every in-window point, and it is
// monotone non-decreasing in y: a segment whose y-extent contains a point's
// y touches the point's row in [Row(minY), Row(maxY)].
func (t Transform) Row(y float64) int { return cell((y-t.World.MinY)/t.PixelHeight(), t.H) }

// PixelMap is a transform's world-to-pixel mapping with its per-point
// constants — the window and the pixel size — computed once, for the point
// pass to map every vertex of a draw through. Map's column and row are the
// transform's Col and Row: the same cell arithmetic over the same pixel
// size, so they agree bit for bit.
type PixelMap struct {
	// MinX..MaxY is the window Map keeps, inclusive at every edge.
	MinX, MinY, MaxX, MaxY float64
	// PW and PH are the pixel width and height.
	PW, PH float64
	W, H   int
}

// PixelMap returns the transform's pixel map.
func (t Transform) PixelMap() PixelMap {
	return PixelMap{
		MinX: t.World.MinX, MinY: t.World.MinY, MaxX: t.World.MaxX, MaxY: t.World.MaxY,
		PW: t.PixelWidth(), PH: t.PixelHeight(),
		W: t.W, H: t.H,
	}
}

// Map maps world (x, y) to its pixel — (Col(x), Transform.Row(y)) — and ok
// is false outside the window (NaN is outside every window). It spells the
// arithmetic out rather than calling Col, which keeps it under the
// inliner's budget: the point pass calls it once per vertex.
func (m *PixelMap) Map(x, y float64) (px, py int, ok bool) {
	if x >= m.MinX && x <= m.MaxX && y >= m.MinY && y <= m.MaxY {
		return cell((x-m.MinX)/m.PW, m.W), cell((y-m.MinY)/m.PH, m.H), true
	}
	return
}

// Col is Transform.Col: the column x falls into, clamped to the grid.
func (m *PixelMap) Col(x float64) int { return cell((x-m.MinX)/m.PW, m.W) }

// Bounds returns the window Map keeps.
func (m *PixelMap) Bounds() geom.BBox {
	return geom.BBox{MinX: m.MinX, MinY: m.MinY, MaxX: m.MaxX, MaxY: m.MaxY}
}

// SubMap is the pixel map of Sub(x0, y0, w, h) as one tile of a tiled
// render of t: Sub's map with each max edge that lies inside t's window —
// an edge the tile shares with its neighbour — made exclusive. Sub computes
// a shared edge identically for both tiles, so the tiles' windows partition
// the window Sub(0, 0, t.W, t.H) covers and every point in it is kept by
// exactly one tile. Only the window narrows: a kept point's pixel is the one
// the tile's transform gives it, the arithmetic its polygon side is
// compiled with.
func (t Transform) SubMap(x0, y0, w, h int) PixelMap {
	s := t.Sub(x0, y0, w, h)
	m := s.PixelMap()
	if max(x0, 0)+s.W < t.W {
		m.MaxX = math.Nextafter(m.MaxX, math.Inf(-1))
	}
	if max(y0, 0)+s.H < t.H {
		m.MaxY = math.Nextafter(m.MaxY, math.Inf(-1))
	}
	return m
}

// cell truncates the fractional cell position f into [0, n): NaN and
// anything below 1 give 0, anything from n-1 up gives n-1. Clamping in
// floating point first keeps an out-of-range f from reaching the
// float-to-int conversion, whose result Go leaves to the implementation.
func cell(f float64, n int) int {
	if f >= 1 {
		return int(min(f, float64(n-1)))
	}
	return 0
}

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
