package raster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randomRing draws an n-vertex ring around c. Some vertices sit exactly on
// a pixel row line of tr, some repeat the previous vertex's y (horizontal
// edges), and with a large radius or a center near the edge many fall
// outside the window. n may be below three.
func randomRing(rng *rand.Rand, tr Transform, c geom.Point, radius float64, n int) geom.Ring {
	ring := make(geom.Ring, n)
	for i := range ring {
		r := radius * (0.3 + 0.7*rng.Float64())
		theta := 2 * math.Pi * (float64(i) + rng.Float64()*0.8) / float64(n)
		p := geom.Point{X: c.X + r*math.Cos(theta), Y: c.Y + r*math.Sin(theta)}
		switch rng.Intn(4) {
		case 0: // onto the nearest row line
			row := float64(int((p.Y - tr.World.MinY) / tr.PixelHeight()))
			p.Y = tr.World.MinY + row*tr.PixelHeight()
		case 1: // horizontal edge from the previous vertex
			if i > 0 {
				p.Y = ring[i-1].Y
			}
		}
		ring[i] = p
	}
	return ring
}

// randomLayer draws a layer of polygons over tr — rings with holes, short
// rings, vertices on row lines and outside the window — and probe points:
// uniform ones, ones on row lines and ones at vertices and vertex heights.
func randomLayer(rng *rand.Rand, tr Transform) ([]geom.Polygon, []geom.Point) {
	w := tr.World
	var polys []geom.Polygon
	var pts []geom.Point
	for k := 0; k < 1+rng.Intn(5); k++ {
		c := geom.Point{X: w.MinX - 0.2*w.Width() + 1.4*w.Width()*rng.Float64(),
			Y: w.MinY - 0.2*w.Height() + 1.4*w.Height()*rng.Float64()}
		radius := (0.05 + 0.6*rng.Float64()) * w.Width()
		pg := geom.Polygon{Outer: randomRing(rng, tr, c, radius, 1+rng.Intn(14))}
		for h := 0; h < rng.Intn(3); h++ {
			hc := geom.Point{X: c.X + (rng.Float64()-0.5)*radius, Y: c.Y + (rng.Float64()-0.5)*radius}
			pg.Holes = append(pg.Holes, randomRing(rng, tr, hc, radius*0.4, 1+rng.Intn(10)))
		}
		polys = append(polys, pg)
		for _, ring := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
			for _, v := range ring {
				pts = append(pts, v, geom.Point{X: w.MinX + w.Width()*rng.Float64(), Y: v.Y})
			}
		}
	}
	for i := 0; i < 400; i++ {
		p := geom.Point{X: w.MinX + w.Width()*rng.Float64(), Y: w.MinY + w.Height()*rng.Float64()}
		if i%3 == 0 {
			p.Y = w.MinY + float64(rng.Intn(tr.H+1))*tr.PixelHeight()
		}
		pts = append(pts, p)
	}
	return polys, pts
}

// checkRowEdges compiles a random layer on a random transform — a full
// canvas or one Sub tile of a larger one — and requires the row-edge test
// to equal Polygon.Contains for every probe point on the canvas, in every
// region.
func checkRowEdges(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	full := NewTransform(geom.BBox{MinX: -3, MinY: 7, MaxX: 97, MaxY: 71}, 1+rng.Intn(64), 1+rng.Intn(64))
	tr := full
	if rng.Intn(2) == 0 {
		x0, y0 := rng.Intn(full.W), rng.Intn(full.H)
		tr = full.Sub(x0, y0, 1+rng.Intn(full.W-x0), 1+rng.Intn(full.H-y0))
	}
	polys, pts := randomLayer(rng, tr)
	rs, err := CompileRegions(context.Background(), tr, polys)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		_, py, ok := tr.ToPixel(p)
		if !ok {
			continue
		}
		for k, pg := range polys {
			if got, want := rs.RowEdges(k, py).Contains(p), pg.Contains(p); got != want {
				t.Fatalf("seed %d: region %d, point %v (row %d): row-edge test %v, Polygon.Contains %v",
					seed, k, p, py, got, want)
			}
		}
	}
}

// TestRowEdgesMatchContains: the row-edge test is Polygon.Contains for
// points in their own row, over random layers.
func TestRowEdgesMatchContains(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkRowEdges(t, seed)
	}
}

// FuzzRowEdgeContains: the same property over fuzzed seeds.
func FuzzRowEdgeContains(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed)
	}
	f.Fuzz(checkRowEdges)
}

// TestRowEdgesListOnlyTouchingEdges: a square's row lists hold the two
// vertical sides on interior rows and every side on the rows its
// horizontal sides lie in.
func TestRowEdgesListOnlyTouchingEdges(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 10, 10)
	sq := geom.NewPolygon(geom.RectRing(geom.BBox{MinX: 2.5, MinY: 2.5, MaxX: 7.5, MaxY: 7.5}))
	rs, err := CompileRegions(context.Background(), tr, []geom.Polygon{sq})
	if err != nil {
		t.Fatal(err)
	}
	for y, want := range []int{0, 0, 3, 2, 2, 2, 2, 3, 0, 0} {
		if got := rs.RowEdges(0, y).Len(); got != want {
			t.Errorf("row %d: %d edges, want %d", y, got, want)
		}
	}
}
