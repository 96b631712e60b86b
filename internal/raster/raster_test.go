package raster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func unit16() Transform {
	return NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 16, MaxY: 16}, 16, 16)
}

func TestNewTransformClamps(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0, -3)
	if tr.W != 1 || tr.H != 1 {
		t.Errorf("W,H = %d,%d, want 1,1", tr.W, tr.H)
	}
}

func TestSquareTransform(t *testing.T) {
	world := geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 7}
	tr := SquareTransform(world, 2)
	if tr.W != 5 || tr.H != 4 {
		t.Errorf("W,H = %d,%d, want 5,4", tr.W, tr.H)
	}
	if tr.PixelWidth() != 2 || tr.PixelHeight() != 2 {
		t.Errorf("pixel size = %v,%v, want 2,2", tr.PixelWidth(), tr.PixelHeight())
	}
	// The grown window must contain the original.
	if !tr.World.ContainsBBox(world) {
		t.Errorf("grown world %v does not contain %v", tr.World, world)
	}
	// Degenerate input.
	tr = SquareTransform(geom.EmptyBBox(), 1)
	if tr.W != 1 || tr.H != 1 {
		t.Error("empty world should yield 1x1")
	}
}

func TestToPixel(t *testing.T) {
	tr := unit16()
	cases := []struct {
		p      geom.Point
		px, py int
		ok     bool
	}{
		{geom.Pt(0.5, 0.5), 0, 0, true},
		{geom.Pt(15.9, 15.9), 15, 15, true},
		{geom.Pt(16, 16), 15, 15, true},  // max edge maps to last pixel
		{geom.Pt(8, 8), 8, 8, true},      // cell boundary belongs to upper cell
		{geom.Pt(-0.1, 5), 0, 0, false},  // outside
		{geom.Pt(5, 16.01), 0, 0, false}, // outside
	}
	for i, c := range cases {
		px, py, ok := tr.ToPixel(c.p)
		if ok != c.ok || (ok && (px != c.px || py != c.py)) {
			t.Errorf("case %d: ToPixel(%v) = %d,%d,%v want %d,%d,%v",
				i, c.p, px, py, ok, c.px, c.py, c.ok)
		}
	}
}

func TestPixelCenterBoxRoundTrip(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: -10, MinY: 5, MaxX: 30, MaxY: 25}, 40, 10)
	for _, pc := range [][2]int{{0, 0}, {39, 9}, {17, 3}} {
		c := tr.PixelCenter(pc[0], pc[1])
		px, py, ok := tr.ToPixel(c)
		if !ok || px != pc[0] || py != pc[1] {
			t.Errorf("center of %v maps to %d,%d,%v", pc, px, py, ok)
		}
		if !tr.PixelBox(pc[0], pc[1]).Contains(c) {
			t.Errorf("pixel box does not contain its center for %v", pc)
		}
	}
}

func TestClampPixelAndIndex(t *testing.T) {
	tr := unit16()
	cases := []struct{ inX, inY, wantX, wantY int }{
		{-3, 5, 0, 5},
		{20, 5, 15, 5},
		{5, -1, 5, 0},
		{5, 99, 5, 15},
		{7, 7, 7, 7},
	}
	for _, c := range cases {
		gx, gy := tr.ClampPixel(c.inX, c.inY)
		if gx != c.wantX || gy != c.wantY {
			t.Errorf("ClampPixel(%d,%d) = %d,%d want %d,%d",
				c.inX, c.inY, gx, gy, c.wantX, c.wantY)
		}
	}
	if tr.Index(3, 2) != 2*16+3 {
		t.Errorf("Index(3,2) = %d", tr.Index(3, 2))
	}
}

func TestPixelDiagonal(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 30, MaxY: 40}, 10, 10)
	want := math.Hypot(3, 4)
	if d := tr.PixelDiagonal(); math.Abs(d-want) > 1e-12 {
		t.Errorf("diagonal = %v, want %v", d, want)
	}
}

func TestTransformSub(t *testing.T) {
	tr := unit16()
	sub := tr.Sub(4, 8, 8, 8)
	if sub.W != 8 || sub.H != 8 {
		t.Fatalf("sub dims = %d,%d, want 8,8", sub.W, sub.H)
	}
	wantWorld := geom.BBox{MinX: 4, MinY: 8, MaxX: 12, MaxY: 16}
	if sub.World != wantWorld {
		t.Errorf("sub world = %v, want %v", sub.World, wantWorld)
	}
	// Sub pixel (0,0) is parent pixel (4,8).
	if c := sub.PixelCenter(0, 0); !c.Eq(tr.PixelCenter(4, 8)) {
		t.Errorf("sub pixel center mismatch: %v vs %v", c, tr.PixelCenter(4, 8))
	}
	// Overflow is clipped.
	sub = tr.Sub(12, 12, 8, 8)
	if sub.W != 4 || sub.H != 4 {
		t.Errorf("clipped sub dims = %d,%d, want 4,4", sub.W, sub.H)
	}
}

func collect(fill func(visit func(x, y int))) map[[2]int]int {
	m := map[[2]int]int{}
	fill(func(x, y int) { m[[2]int{x, y}]++ })
	return m
}

// The TestFillRing cases fill one ring as a hole-free polygon. Over the
// full grid it covers every pixel once.
func TestFillRingFullGrid(t *testing.T) {
	tr := unit16()
	pg := geom.NewPolygon(geom.RectRing(geom.BBox{MinX: 0, MinY: 0, MaxX: 16, MaxY: 16}))
	got := collect(func(v func(x, y int)) { FillPolygon(tr, pg, v) })
	if len(got) != 256 {
		t.Errorf("full-grid fill = %d pixels, want 256", len(got))
	}
	for k, n := range got {
		if n != 1 {
			t.Errorf("pixel %v visited %d times", k, n)
		}
	}
}

func TestFillRingHalfPixelRect(t *testing.T) {
	tr := unit16()
	// Rectangle [2.5, 5.5] x [3.5, 4.5]: covers centers x in {3.5,4.5},
	// wait — centers are at *.5; x-range [2.5,5.5) covers centers 2.5,3.5,4.5
	// => px 2,3,4; y-range [3.5,4.5) covers center 3.5 => py 3.
	pg := geom.NewPolygon(geom.RectRing(geom.BBox{MinX: 2.5, MinY: 3.5, MaxX: 5.5, MaxY: 4.5}))
	got := collect(func(v func(x, y int)) { FillPolygon(tr, pg, v) })
	want := map[[2]int]bool{{2, 3}: true, {3, 3}: true, {4, 3}: true}
	if len(got) != len(want) {
		t.Fatalf("fill = %v, want keys %v", got, want)
	}
	for k := range want {
		if got[k] != 1 {
			t.Errorf("missing pixel %v", k)
		}
	}
}

func TestFillRingTinyPolygonNoCenters(t *testing.T) {
	tr := unit16()
	// A polygon that covers no pixel center produces no fragments — exactly
	// the GPU behaviour that makes unbounded raster join approximate.
	pg := geom.NewPolygon(geom.RectRing(geom.BBox{MinX: 3.6, MinY: 3.6, MaxX: 3.9, MaxY: 3.9}))
	got := collect(func(v func(x, y int)) { FillPolygon(tr, pg, v) })
	if len(got) != 0 {
		t.Errorf("sub-pixel fill = %v, want none", got)
	}
}

func TestFillPolygonMatchesContains(t *testing.T) {
	tr := unit16()
	star := geom.StarRing(geom.Pt(8, 8), 7, 3, 9)
	pg := geom.NewPolygon(star)
	got := collect(func(v func(x, y int)) { FillPolygon(tr, pg, v) })
	// Every pixel's coverage must equal the pixel-center containment test.
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			want := pg.Contains(tr.PixelCenter(x, y))
			if _, ok := got[[2]int{x, y}]; ok != want {
				t.Errorf("pixel (%d,%d): filled=%v contains=%v", x, y, ok, want)
			}
		}
	}
}

func TestFillPolygonWithHole(t *testing.T) {
	tr := unit16()
	pg := geom.Polygon{
		Outer: geom.RectRing(geom.BBox{MinX: 1, MinY: 1, MaxX: 15, MaxY: 15}),
		Holes: []geom.Ring{geom.RectRing(geom.BBox{MinX: 5, MinY: 5, MaxX: 11, MaxY: 11})},
	}
	pg.Normalize()
	got := collect(func(v func(x, y int)) { FillPolygon(tr, pg, v) })
	// Outer covers 14x14=196 centers; hole removes 6x6=36.
	if len(got) != 196-36 {
		t.Errorf("holed fill = %d pixels, want 160", len(got))
	}
	if _, ok := got[[2]int{8, 8}]; ok {
		t.Error("hole center pixel should not be filled")
	}
}

func TestTraceSegmentHorizontal(t *testing.T) {
	tr := unit16()
	got := collect(func(v func(x, y int)) {
		TraceSegment(tr, geom.Pt(1.5, 3.5), geom.Pt(9.5, 3.5), v)
	})
	if len(got) != 9 {
		t.Errorf("horizontal trace = %d cells, want 9", len(got))
	}
	for x := 1; x <= 9; x++ {
		if got[[2]int{x, 3}] == 0 {
			t.Errorf("missing cell (%d,3)", x)
		}
	}
}

func TestTraceSegmentDiagonal(t *testing.T) {
	tr := unit16()
	got := collect(func(v func(x, y int)) {
		TraceSegment(tr, geom.Pt(0.5, 0.5), geom.Pt(3.5, 3.5), v)
	})
	// Diagonal through corners: visits (0,0),(1,1),(2,2),(3,3) plus possibly
	// corner-adjacent cells depending on tie-breaking; must include the four
	// diagonal cells and be connected.
	for i := 0; i < 4; i++ {
		if got[[2]int{i, i}] == 0 {
			t.Errorf("missing diagonal cell (%d,%d)", i, i)
		}
	}
}

func TestTraceSegmentClipsOutside(t *testing.T) {
	tr := unit16()
	got := collect(func(v func(x, y int)) {
		TraceSegment(tr, geom.Pt(-100, 100), geom.Pt(-50, 120), v)
	})
	if len(got) != 0 {
		t.Errorf("outside trace = %v, want none", got)
	}
	// Segment crossing the window gets clipped to it.
	got = collect(func(v func(x, y int)) {
		TraceSegment(tr, geom.Pt(-10, 8.5), geom.Pt(30, 8.5), v)
	})
	if len(got) != 16 {
		t.Errorf("crossing trace = %d cells, want 16", len(got))
	}
}

func TestTraceSegmentPoint(t *testing.T) {
	tr := unit16()
	got := collect(func(v func(x, y int)) {
		TraceSegment(tr, geom.Pt(5.5, 5.5), geom.Pt(5.5, 5.5), v)
	})
	if len(got) != 1 || got[[2]int{5, 5}] != 1 {
		t.Errorf("point trace = %v, want {(5,5):1}", got)
	}
}

// Property: TraceSegment visits exactly the cells whose boxes the segment
// intersects-ish: every visited cell's (slightly expanded) box must touch
// the segment, and the endpoint cells are always visited.
func TestTraceSegmentProperty(t *testing.T) {
	tr := unit16()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		a := geom.Pt(rng.Float64()*16, rng.Float64()*16)
		b := geom.Pt(rng.Float64()*16, rng.Float64()*16)
		visited := map[[2]int]bool{}
		TraceSegment(tr, a, b, func(x, y int) { visited[[2]int{x, y}] = true })
		ax, ay, _ := tr.ToPixel(a)
		bx, by, _ := tr.ToPixel(b)
		if !visited[[2]int{ax, ay}] || !visited[[2]int{bx, by}] {
			t.Fatalf("iter %d: endpoint cells not visited: a=(%d,%d) b=(%d,%d) got %v",
				i, ax, ay, bx, by, visited)
		}
		for c := range visited {
			box := tr.PixelBox(c[0], c[1]).Expand(1e-9)
			if _, _, ok := geom.ClipSegmentToBBox(a, b, box); !ok {
				t.Fatalf("iter %d: visited cell %v not touched by segment %v-%v", i, c, a, b)
			}
		}
	}
}

func TestBoundaryPixels(t *testing.T) {
	tr := unit16()
	pg := geom.NewPolygon(geom.RectRing(geom.BBox{MinX: 2.5, MinY: 2.5, MaxX: 13.5, MaxY: 13.5}))
	bm := NewBitmap(16, 16)
	BoundaryPixels(tr, pg, bm.Set)
	// Boundary ring: all cells the rect boundary passes through — columns
	// 2..13 at rows 2 and 13, plus rows 2..13 at columns 2 and 13.
	want := 0
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			onX := (x == 2 || x == 13) && y >= 2 && y <= 13
			onY := (y == 2 || y == 13) && x >= 2 && x <= 13
			if onX || onY {
				want++
				if !bm.Get(x, y) {
					t.Errorf("boundary cell (%d,%d) not marked", x, y)
				}
			} else if bm.Get(x, y) {
				t.Errorf("non-boundary cell (%d,%d) marked", x, y)
			}
		}
	}
	if bm.Count() != want {
		t.Errorf("boundary count = %d, want %d", bm.Count(), want)
	}
}

func TestBitmap(t *testing.T) {
	bm := NewBitmap(70, 3) // straddles word boundaries
	if bm.Count() != 0 {
		t.Error("new bitmap should be empty")
	}
	bm.Set(0, 0)
	bm.Set(69, 2)
	bm.Set(63, 0)
	bm.Set(64, 0)
	if !bm.Get(0, 0) || !bm.Get(69, 2) || !bm.Get(63, 0) || !bm.Get(64, 0) {
		t.Error("set bits should read back")
	}
	if bm.Get(1, 0) || bm.Get(68, 2) {
		t.Error("unset bits should read false")
	}
	if bm.Count() != 4 {
		t.Errorf("count = %d, want 4", bm.Count())
	}
	bm.Clear()
	if bm.Count() != 0 || bm.Get(0, 0) {
		t.Error("clear should reset all bits")
	}
}

// Property: for random convex polygons, FillPolygon + BoundaryPixels
// partition coverage sensibly: every filled pixel is either fully inside
// (all four pixel corners inside) or marked as boundary.
func TestFillBoundaryPartitionProperty(t *testing.T) {
	tr := unit16()
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 100; iter++ {
		ring := geom.RegularRing(
			geom.Pt(4+rng.Float64()*8, 4+rng.Float64()*8),
			1+rng.Float64()*6, 3+rng.Intn(12))
		pg := geom.NewPolygon(ring)
		bm := NewBitmap(16, 16)
		BoundaryPixels(tr, pg, bm.Set)
		bad := false
		FillPolygon(tr, pg, func(x, y int) {
			if bm.Get(x, y) {
				return // boundary pixel: exactness not required
			}
			for _, c := range tr.PixelBox(x, y).Corners() {
				if !pg.ContainsBoundary(c, 1e-9) {
					bad = true
				}
			}
		})
		if bad {
			t.Fatalf("iter %d: non-boundary filled pixel has a corner outside", iter)
		}
	}
}
