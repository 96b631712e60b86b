package raster

import (
	"sort"

	"repro/internal/geom"
)

// FillPolygonSpans scan-converts a polygon (outer ring and holes) onto the
// grid: visit receives each run of pixels whose centers lie inside the
// polygon as pixels [x0, x1) of row py, in row-major order. This is the
// same center-sampling coverage rule the GPU rasterizer applies when Raster
// Join draws its polygon pass; holes flip coverage by the even-odd rule
// exactly like outer edges. The span compiler banks these runs so repeated
// queries replay them instead of re-scan-converting the polygon.
func FillPolygonSpans(t Transform, pg geom.Polygon, visit func(py, x0, x1 int)) {
	bb := pg.BBox().Intersect(t.World)
	if bb.IsEmpty() {
		return
	}
	ph := t.PixelHeight()
	// Pixel rows whose centers fall inside the polygon's Y extent.
	y0 := int((bb.MinY - t.World.MinY) / ph)
	y1 := int((bb.MaxY - t.World.MinY) / ph)
	if y1 >= t.H {
		y1 = t.H - 1
	}
	if y0 < 0 {
		y0 = 0
	}
	var xs []float64
	for py := y0; py <= y1; py++ {
		cy := t.World.MinY + (float64(py)+0.5)*ph
		xs = xs[:0]
		xs = ringCrossings(pg.Outer, cy, xs)
		for _, h := range pg.Holes {
			xs = ringCrossings(h, cy, xs)
		}
		if len(xs) < 2 {
			continue
		}
		sort.Float64s(xs)
		for i := 0; i+1 < len(xs); i += 2 {
			x0, x1 := spanBounds(t, xs[i], xs[i+1])
			if x0 < x1 {
				visit(py, x0, x1)
			}
		}
	}
}

// ringCrossings appends the x coordinates where the ring's edges cross the
// horizontal line y=cy, using the half-open rule (an edge covers its lower
// endpoint, excludes its upper) so shared vertices are counted exactly once.
func ringCrossings(r geom.Ring, cy float64, xs []float64) []float64 {
	n := len(r)
	if n < 3 {
		return xs
	}
	for i := 0; i < n; i++ {
		a := r[i]
		b := r[(i+1)%n]
		if (a.Y > cy) == (b.Y > cy) {
			continue
		}
		xs = append(xs, a.X+(cy-a.Y)*(b.X-a.X)/(b.Y-a.Y))
	}
	return xs
}

// spanBounds converts a world-space crossing pair into the pixel run whose
// centers fall in [x0, x1), clamped to the grid.
func spanBounds(t Transform, x0, x1 float64) (start, end int) {
	pw := t.PixelWidth()
	start = firstCenterIdx(x0-t.World.MinX, pw)
	end = firstCenterIdx(x1-t.World.MinX, pw) // exclusive
	if start < 0 {
		start = 0
	}
	if end > t.W {
		end = t.W
	}
	return start, end
}

// firstCenterIdx returns the index of the first pixel whose center
// (at (idx+0.5)*size) is >= v, i.e. ceil(v/size - 0.5).
func firstCenterIdx(v, size float64) int {
	f := v/size - 0.5
	i := int(f)
	if f > float64(i) {
		i++
	}
	return i
}
