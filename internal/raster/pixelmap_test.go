package raster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// refPixel is the pixel mapping written the long way: the window test on the
// bounding box, then each axis's fractional position truncated and clamped
// into the grid by comparisons, with the pixel size recomputed per point.
func refPixel(t Transform, x, y float64) (px, py int, ok bool) {
	if !t.World.Contains(geom.Point{X: x, Y: y}) {
		return 0, 0, false
	}
	clamp := func(f float64, n int) int {
		switch {
		case f >= float64(n):
			return n - 1
		case f >= 1:
			return int(f)
		}
		return 0
	}
	return clamp((x-t.World.MinX)/t.PixelWidth(), t.W), clamp((y-t.World.MinY)/t.PixelHeight(), t.H), true
}

// probes returns coordinates along one axis of t: every pixel edge and one
// ulp either side of it (the max edge included), pixel centres, the window
// edges and their neighbours, a value far outside, NaN and ±Inf.
func probes(lo, hi, size float64, n int) []float64 {
	vs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), lo - 1e9, hi + 1e9}
	for _, e := range []float64{lo, hi} {
		vs = append(vs, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	for k := 0; k <= n; k++ {
		e := lo + float64(k)*size
		vs = append(vs, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)), e+size/2)
	}
	return vs
}

// checkPixelMap requires Map, Transform.ToPixel and, for kept points,
// Col and Row to agree with refPixel on every probe point of tr.
func checkPixelMap(t *testing.T, tr Transform) {
	t.Helper()
	m := tr.PixelMap()
	xs := probes(tr.World.MinX, tr.World.MaxX, tr.PixelWidth(), tr.W)
	ys := probes(tr.World.MinY, tr.World.MaxY, tr.PixelHeight(), tr.H)
	for _, x := range xs {
		for _, y := range ys {
			wx, wy, wok := refPixel(tr, x, y)
			gx, gy, gok := m.Map(x, y)
			if gx != wx || gy != wy || gok != wok {
				t.Fatalf("%+v: Map(%v, %v) = %d,%d,%v, want %d,%d,%v", tr, x, y, gx, gy, gok, wx, wy, wok)
			}
			if tx, ty, tok := tr.ToPixel(geom.Point{X: x, Y: y}); tx != wx || ty != wy || tok != wok {
				t.Fatalf("%+v: ToPixel(%v, %v) = %d,%d,%v, want %d,%d,%v", tr, x, y, tx, ty, tok, wx, wy, wok)
			}
			if wok && (tr.Col(x) != wx || m.Col(x) != wx || tr.Row(y) != wy) {
				t.Fatalf("%+v: (%v, %v): Col %d/%d, Row %d, want %d,%d", tr, x, y, tr.Col(x), m.Col(x), tr.Row(y), wx, wy)
			}
		}
	}
}

// checkSubMaps cuts tr into step×step tiles and requires every probe point
// of the tiled window to be kept by exactly one tile's SubMap, in the pixel
// the tile's own transform gives it, and every other probe by none.
func checkSubMaps(t *testing.T, tr Transform, step int) {
	t.Helper()
	type tile struct {
		sub Transform
		m   PixelMap
	}
	var tiles []tile
	for y0 := 0; y0 < tr.H; y0 += step {
		for x0 := 0; x0 < tr.W; x0 += step {
			tiles = append(tiles, tile{tr.Sub(x0, y0, step, step), tr.SubMap(x0, y0, step, step)})
		}
	}
	window := tr.Sub(0, 0, tr.W, tr.H).World
	xs := probes(tr.World.MinX, tr.World.MaxX, tr.PixelWidth(), tr.W)
	ys := probes(tr.World.MinY, tr.World.MaxY, tr.PixelHeight(), tr.H)
	for _, x := range xs {
		for _, y := range ys {
			kept := 0
			for _, tl := range tiles {
				gx, gy, ok := tl.m.Map(x, y)
				if !ok {
					continue
				}
				kept++
				if wx, wy, _ := refPixel(tl.sub, x, y); gx != wx || gy != wy {
					t.Fatalf("%+v step %d: tile %+v maps (%v, %v) to %d,%d, its transform to %d,%d",
						tr, step, tl.sub, x, y, gx, gy, wx, wy)
				}
			}
			want := 0
			if window.Contains(geom.Point{X: x, Y: y}) {
				want = 1
			}
			if kept != want {
				t.Fatalf("%+v step %d: (%v, %v) kept by %d tiles, want %d", tr, step, x, y, kept, want)
			}
		}
	}
}

// TestPixelMapMatchesToPixel: the hoisted map is the reference mapping on
// pixel edges, one ulp either side of them, the inclusive max edge, NaN and
// ±Inf, over 1×1 and larger grids and Sub tiles of them; and SubMap tiles
// keep every point of the tiled window exactly once.
func TestPixelMapMatchesToPixel(t *testing.T) {
	for _, tr := range []Transform{
		NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 1, 1),
		NewTransform(geom.BBox{MinX: -3, MinY: 2, MaxX: 13, MaxY: 11}, 7, 5),
		SquareTransform(geom.BBox{MinX: -8238000.3, MinY: 4938000.7, MaxX: -8210000.1, MaxY: 4975000.9}, 3037.7),
		NewTransform(geom.BBox{MinX: 0.1, MinY: 0.1, MaxX: 0.7, MaxY: 0.3}, 3, 1),
	} {
		checkPixelMap(t, tr)
		for _, step := range []int{1, 2, 3} {
			checkSubMaps(t, tr, step)
		}
		checkPixelMap(t, tr.Sub(tr.W/2, tr.H/2, tr.W, tr.H))
	}
}

// FuzzPixelMap: the same properties over fuzzed windows, grid sizes and
// tile steps.
func FuzzPixelMap(f *testing.F) {
	f.Add(int64(1), 0.0, 0.0, 1.0, 1.0, uint8(1), uint8(1), uint8(1))
	f.Add(int64(2), -3.0, 2.0, 13.0, 11.0, uint8(7), uint8(5), uint8(2))
	f.Add(int64(3), -8238000.3, 4938000.7, -8210000.1, 4975000.9, uint8(11), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, x0, y0, x1, y1 float64, w8, h8, step8 uint8) {
		world := geom.BBox{MinX: min(x0, x1), MinY: min(y0, y1), MaxX: max(x0, x1), MaxY: max(y0, y1)}
		for _, v := range []float64{x0, y0, x1, y1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("window must be finite")
			}
		}
		tr := NewTransform(world, int(w8%16)+1, int(h8%16)+1)
		checkPixelMap(t, tr)
		checkSubMaps(t, tr, int(step8%6)+1)
		rng := rand.New(rand.NewSource(seed))
		sx, sy := rng.Intn(tr.W), rng.Intn(tr.H)
		checkPixelMap(t, tr.Sub(sx, sy, 1+rng.Intn(tr.W-sx), 1+rng.Intn(tr.H-sy)))
	})
}
