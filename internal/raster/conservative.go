package raster

import (
	"math"
	"math/bits"

	"repro/internal/geom"
)

// TraceSegment visits every pixel whose box the segment ab passes through,
// using Amanatides–Woo grid traversal. The segment is clipped to the window
// first; segments entirely outside visit nothing. Pixels are visited once,
// in order along the segment.
func TraceSegment(t Transform, a, b geom.Point, visit func(px, py int)) {
	// The clip window is the world window itself; endpoints exactly on its
	// max edges map one past the grid, so toCell clamps them into the last
	// pixel.
	p0, p1, ok := geom.ClipSegmentToBBox(a, b, t.World)
	if !ok {
		return
	}
	pw, ph := t.PixelWidth(), t.PixelHeight()
	toCell := func(p geom.Point) (int, int) {
		x := int((p.X - t.World.MinX) / pw)
		y := int((p.Y - t.World.MinY) / ph)
		if x >= t.W {
			x = t.W - 1
		}
		if y >= t.H {
			y = t.H - 1
		}
		if x < 0 {
			x = 0
		}
		if y < 0 {
			y = 0
		}
		return x, y
	}
	x, y := toCell(p0)
	xEnd, yEnd := toCell(p1)

	dx := p1.X - p0.X
	dy := p1.Y - p0.Y

	stepX, stepY := 0, 0
	tMaxX, tMaxY := math.Inf(1), math.Inf(1)
	tDeltaX, tDeltaY := math.Inf(1), math.Inf(1)

	if dx > 0 {
		stepX = 1
		next := t.World.MinX + float64(x+1)*pw
		tMaxX = (next - p0.X) / dx
		tDeltaX = pw / dx
	} else if dx < 0 {
		stepX = -1
		next := t.World.MinX + float64(x)*pw
		tMaxX = (next - p0.X) / dx
		tDeltaX = -pw / dx
	}
	if dy > 0 {
		stepY = 1
		next := t.World.MinY + float64(y+1)*ph
		tMaxY = (next - p0.Y) / dy
		tDeltaY = ph / dy
	} else if dy < 0 {
		stepY = -1
		next := t.World.MinY + float64(y)*ph
		tMaxY = (next - p0.Y) / dy
		tDeltaY = -ph / dy
	}

	// Bounded by the Manhattan cell distance plus slack for ties.
	maxSteps := abs(xEnd-x) + abs(yEnd-y) + 2
	visit(x, y)
	for steps := 0; steps < maxSteps; steps++ {
		if x == xEnd && y == yEnd {
			return
		}
		if tMaxX < tMaxY {
			x += stepX
			tMaxX += tDeltaX
		} else {
			y += stepY
			tMaxY += tDeltaY
		}
		if x < 0 || x >= t.W || y < 0 || y >= t.H {
			return
		}
		visit(x, y)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// BoundaryPixels visits every pixel crossed by any edge of the polygon
// (outer ring and holes). A pixel may be visited more than once when
// multiple edges cross it; callers typically mark a bitmap.
//
// This is the conservative pass Raster Join's accurate variant uses to
// decide which fragments need the exact point-in-polygon test.
func BoundaryPixels(t Transform, pg geom.Polygon, visit func(px, py int)) {
	pg.Edges(func(a, b geom.Point) bool {
		TraceSegment(t, a, b, visit)
		return true
	})
}

// Bitmap is a dense 2D bit set over a pixel grid, used to deduplicate
// boundary-pixel visits and to classify interior vs boundary coverage. Each
// row starts on a fresh 64-bit word, so a row's words can be read and ranked
// on their own.
type Bitmap struct {
	W, H   int
	stride int // words per row
	words  []uint64
}

// NewBitmap returns a cleared W×H bitmap.
func NewBitmap(w, h int) *Bitmap {
	stride := (w + 63) / 64
	return &Bitmap{W: w, H: h, stride: stride, words: make([]uint64, stride*h)}
}

// Set marks pixel (x,y).
func (b *Bitmap) Set(x, y int) { b.words[y*b.stride+x>>6] |= 1 << uint(x&63) }

// Unset clears pixel (x,y).
func (b *Bitmap) Unset(x, y int) { b.words[y*b.stride+x>>6] &^= 1 << uint(x&63) }

// Get reports whether pixel (x,y) is marked.
func (b *Bitmap) Get(x, y int) bool { return b.words[y*b.stride+x>>6]&(1<<uint(x&63)) != 0 }

// Words returns the bitmap's words and the number of words per row: bit
// x&63 of word y*stride + x>>6 is pixel (x, y).
func (b *Bitmap) Words() (words []uint64, stride int) { return b.words, b.stride }

// Row returns row y's words: bit x&63 of word x>>6 is pixel (x, y).
func (b *Bitmap) Row(y int) []uint64 { return b.words[y*b.stride : (y+1)*b.stride] }

// NextSet returns the first marked column in [x, end) of row y, or end when
// there is none.
func (b *Bitmap) NextSet(y, x, end int) int {
	row := b.Row(y)
	for x < end {
		if w := row[x>>6] >> uint(x&63); w != 0 {
			return min(x+bits.TrailingZeros64(w), end)
		}
		x = (x | 63) + 1
	}
	return end
}
