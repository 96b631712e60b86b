package raster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// lineAt returns, for the line nearest v0 between cells i-1 and i, the
// least v that cell maps to i: a column line of Col when size is the pixel
// width and cell is Col, a row line of Row for the height and Row. Lines
// at or beyond the grid's edges, which cell clamps, are returned as
// computed.
func lineAt(v0, min, size float64, n int, cell func(float64) int) float64 {
	i := math.Round((v0 - min) / size)
	v := min + i*size
	if !(i >= 1 && i < float64(n)) {
		return v
	}
	// cell(lo) < i <= cell(hi); bisect until the two are adjacent floats.
	lo, hi := v-size, v+size
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return hi
		}
		if cell(mid) >= int(i) {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// snappedRing draws an n-vertex ring around c whose vertices often sit
// exactly on one of tr's column or row lines — the first value Col or Row
// maps past the line — or repeat the previous vertex's x or y (vertical
// and horizontal edges). n may be below three.
func snappedRing(rng *rand.Rand, tr Transform, c geom.Point, radius float64, n int) geom.Ring {
	col := func(x float64) float64 { return lineAt(x, tr.World.MinX, tr.PixelWidth(), tr.W, tr.Col) }
	row := func(y float64) float64 { return lineAt(y, tr.World.MinY, tr.PixelHeight(), tr.H, tr.Row) }
	ring := make(geom.Ring, n)
	for i := range ring {
		r := radius * (0.2 + 0.8*rng.Float64())
		theta := 2 * math.Pi * (float64(i) + rng.Float64()*0.9) / float64(n)
		p := geom.Point{X: c.X + r*math.Cos(theta), Y: c.Y + r*math.Sin(theta)}
		switch rng.Intn(7) {
		case 0:
			p.X = col(p.X)
		case 1:
			p.Y = row(p.Y)
		case 2:
			p.X, p.Y = col(p.X), row(p.Y)
		case 3:
			if i > 0 {
				p.X = ring[i-1].X
			}
		case 4:
			if i > 0 {
				p.Y = ring[i-1].Y
			}
		}
		ring[i] = p
	}
	return ring
}

// membershipProbes returns points on the polygons' vertices, one ulp and
// one rounding margin to either side of them, at their heights on the
// nearest column lines, on their edges and beside them, and on pixel
// corners, plus uniform points.
func membershipProbes(rng *rand.Rand, tr Transform, polys []geom.Polygon) []geom.Point {
	w := tr.World
	var pts []geom.Point
	near := func(p geom.Point) {
		margin := 0x1p-48 * math.Abs(p.X)
		col := lineAt(p.X, w.MinX, tr.PixelWidth(), tr.W, tr.Col)
		pts = append(pts, p,
			geom.Point{X: math.Nextafter(p.X, math.Inf(-1)), Y: p.Y},
			geom.Point{X: math.Nextafter(p.X, math.Inf(1)), Y: p.Y},
			geom.Point{X: p.X, Y: math.Nextafter(p.Y, math.Inf(-1))},
			geom.Point{X: p.X, Y: math.Nextafter(p.Y, math.Inf(1))},
			geom.Point{X: p.X - margin, Y: p.Y},
			geom.Point{X: p.X + margin, Y: p.Y},
			geom.Point{X: col, Y: p.Y},
			geom.Point{X: math.Nextafter(col, math.Inf(-1)), Y: p.Y},
			geom.Point{X: math.Nextafter(col, math.Inf(1)), Y: p.Y})
	}
	for _, pg := range polys {
		for _, ring := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
			for i, a := range ring {
				near(a)
				b := ring[(i+1)%len(ring)]
				s := rng.Float64()
				near(geom.Point{X: a.X + s*(b.X-a.X), Y: a.Y + s*(b.Y-a.Y)})
				// Where the edge crosses a row line.
				row := w.MinY + math.Round((a.Y-w.MinY)/tr.PixelHeight()+s)*tr.PixelHeight()
				if a.Y != b.Y && (row-a.Y)*(row-b.Y) <= 0 {
					near(geom.Point{X: a.X + (row-a.Y)*(b.X-a.X)/(b.Y-a.Y), Y: row})
				}
			}
		}
	}
	for i := 0; i < 300; i++ {
		pts = append(pts, geom.Point{X: w.MinX + w.Width()*rng.Float64(), Y: w.MinY + w.Height()*rng.Float64()})
		pts = append(pts, geom.Point{X: w.MinX + float64(rng.Intn(tr.W+1))*tr.PixelWidth(),
			Y: w.MinY + float64(rng.Intn(tr.H+1))*tr.PixelHeight()})
	}
	return pts
}

// checkMembership compiles a random layer — rings with holes, short rings,
// vertices on column and row lines and outside the window, horizontal and
// vertical edges, now and then a vertex far beyond any margin — on a full
// canvas or one Sub tile of a larger one, and requires every membership
// record a probe point reaches, through its pixel's slot, to answer as
// Polygon.Contains.
func checkMembership(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	full := NewTransform(geom.BBox{MinX: -3, MinY: 7, MaxX: 97, MaxY: 71}, 1+rng.Intn(48), 1+rng.Intn(48))
	tr := full
	if rng.Intn(2) == 0 {
		x0, y0 := rng.Intn(full.W), rng.Intn(full.H)
		tr = full.Sub(x0, y0, 1+rng.Intn(full.W-x0), 1+rng.Intn(full.H-y0))
	}
	w := tr.World
	var polys []geom.Polygon
	for k := 0; k < 1+rng.Intn(5); k++ {
		c := geom.Point{X: w.MinX - 0.2*w.Width() + 1.4*w.Width()*rng.Float64(),
			Y: w.MinY - 0.2*w.Height() + 1.4*w.Height()*rng.Float64()}
		radius := (0.05 + 0.6*rng.Float64()) * w.Width()
		pg := geom.Polygon{Outer: snappedRing(rng, tr, c, radius, 1+rng.Intn(14))}
		for h := 0; h < rng.Intn(3); h++ {
			hc := geom.Point{X: c.X + (rng.Float64()-0.5)*radius, Y: c.Y + (rng.Float64()-0.5)*radius}
			pg.Holes = append(pg.Holes, snappedRing(rng, tr, hc, radius*0.5, 1+rng.Intn(10)))
		}
		if rng.Intn(16) == 0 && len(pg.Outer) > 0 {
			pg.Outer[rng.Intn(len(pg.Outer))].X = math.Copysign(0x1p501, rng.Float64()-0.5)
		}
		polys = append(polys, pg)
	}
	rs, err := CompileRegions(context.Background(), tr, polys)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.PixelMap()
	for _, p := range membershipProbes(rng, tr, polys) {
		px, py, ok := m.Map(p.X, p.Y)
		if !ok {
			continue
		}
		s := rs.Slot(px, py)
		if s < 0 {
			continue
		}
		for _, q := range rs.SlotIndex().Positions(s) {
			k := rs.RegionOf(q)
			if got, want := rs.Member(q).Contains(p), polys[k].Contains(p); got != want {
				t.Fatalf("seed %d: region %d, point %v (pixel %d,%d): record %v, Polygon.Contains %v",
					seed, k, p, px, py, got, want)
			}
		}
	}
}

// TestBoundaryMembershipMatchesContains: every membership record is
// Polygon.Contains for the points in its pixel, over random layers.
func TestBoundaryMembershipMatchesContains(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkMembership(t, seed)
	}
}

// FuzzBoundaryMembership: the same property over fuzzed seeds.
func FuzzBoundaryMembership(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed)
	}
	f.Fuzz(checkMembership)
}

// TestMemberDropsFarEdges: in the boundary pixels of a square's left side,
// a record tests only the left side; the right side, a column away, folds
// into the constant parity bit — one endpoint y kept where the side ends
// in the pixel's row — and the horizontal sides drop out.
func TestMemberDropsFarEdges(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 10, 10)
	sq := geom.NewPolygon(geom.RectRing(geom.BBox{MinX: 2.5, MinY: 2.5, MaxX: 7.5, MaxY: 7.5}))
	rs, err := CompileRegions(context.Background(), tr, []geom.Polygon{sq})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i, idx := range rs.Boundary(0) {
		px, py := int(idx)%tr.W, int(idx)/tr.W
		if px != 2 {
			continue
		}
		seen++
		rec := rs.Member(rs.BoundaryOffset(0) + int32(i))
		parity, ys := 1, 0
		if py == 2 || py == 7 {
			parity, ys = int(7-py)/5, 1
		}
		if len(rec.words) == 0 {
			t.Fatalf("pixel (2,%d): empty record", py)
		}
		if nl, ny := counts(rec.words[0]); len(rec.words) != 1+nl+ny || nl != 1 || int(rec.words[0]&1) != parity || ny != ys {
			t.Errorf("pixel (2,%d): record %v, want 1 local edge, parity %d and %d ys", py, rec.words, parity, ys)
		}
	}
	if seen != 6 {
		t.Fatalf("%d boundary pixels in column 2, want 6", seen)
	}
}

// TestMemberSplitsLongRings: a ring with more local edges in one pixel than
// a group header counts spans several groups, and the record still answers
// as Polygon.Contains.
func TestMemberSplitsLongRings(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 4, 4)
	n := maxLocal + 1000
	ring := geom.Ring{{X: 3.5, Y: 1.05}}
	for i := 0; i < n; i++ {
		ring = append(ring, geom.Point{X: 1.2 + 0.6*float64(i%2), Y: 1.1 + 0.8*float64(i)/float64(n)})
	}
	ring = append(ring, geom.Point{X: 3.5, Y: 1.95})
	pg := geom.NewPolygon(ring)
	rs, err := CompileRegions(context.Background(), tr, []geom.Polygon{pg})
	if err != nil {
		t.Fatal(err)
	}
	q := int32(-1)
	for i, idx := range rs.Boundary(0) {
		if idx == 1*4+1 {
			q = int32(i)
		}
	}
	if q < 0 {
		t.Fatal("pixel (1,1) is not a boundary pixel")
	}
	rec := rs.Member(q)
	if got := rec.Local(); got < n {
		t.Fatalf("%d local edges, want at least %d", got, n)
	}
	if rec.words[0]&headerEnd != 0 {
		t.Fatal("the first group of a split ring carries the end flag")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := geom.Point{X: 1 + rng.Float64(), Y: 1 + rng.Float64()}
		if got, want := rec.Contains(p), pg.Contains(p); got != want {
			t.Fatalf("point %v: record %v, Polygon.Contains %v", p, got, want)
		}
	}
}
