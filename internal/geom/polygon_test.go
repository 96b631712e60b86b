package geom

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func unitSquare() Ring { return Ring{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)} }

func lShape() Ring {
	// An L: 2x2 square missing its top-right 1x1 quadrant. Area 3.
	return Ring{Pt(0, 0), Pt(2, 0), Pt(2, 1), Pt(1, 1), Pt(1, 2), Pt(0, 2)}
}

func TestRingSignedArea(t *testing.T) {
	sq := unitSquare()
	if a := sq.SignedArea(); a != 1 {
		t.Errorf("CCW square signed area = %v, want 1", a)
	}
	cw := sq.Clone()
	cw.Reverse()
	if a := cw.SignedArea(); a != -1 {
		t.Errorf("CW square signed area = %v, want -1", a)
	}
	if a := lShape().Area(); a != 3 {
		t.Errorf("L-shape area = %v, want 3", a)
	}
	if a := (Ring{Pt(0, 0), Pt(1, 1)}).SignedArea(); a != 0 {
		t.Errorf("degenerate ring area = %v, want 0", a)
	}
}

func TestRingIsCCWAndReverse(t *testing.T) {
	sq := unitSquare()
	if !sq.IsCCW() {
		t.Error("unit square should be CCW")
	}
	sq.Reverse()
	if sq.IsCCW() {
		t.Error("reversed square should be CW")
	}
}

func TestRingCentroid(t *testing.T) {
	if c := unitSquare().Centroid(); !c.NearEq(Pt(0.5, 0.5), 1e-12) {
		t.Errorf("square centroid = %v, want (0.5,0.5)", c)
	}
	// L-shape centroid: three unit squares at centers (.5,.5), (1.5,.5), (.5,1.5).
	want := Pt((0.5+1.5+0.5)/3, (0.5+0.5+1.5)/3)
	if c := lShape().Centroid(); !c.NearEq(want, 1e-12) {
		t.Errorf("L centroid = %v, want %v", c, want)
	}
	// Degenerate: vertex mean.
	if c := (Ring{Pt(0, 0), Pt(2, 2)}).Centroid(); !c.NearEq(Pt(1, 1), 1e-12) {
		t.Errorf("degenerate centroid = %v, want (1,1)", c)
	}
}

func TestRingContains(t *testing.T) {
	l := lShape()
	in := []Point{{0.5, 0.5}, {1.5, 0.5}, {0.5, 1.5}, {0.99, 0.99}}
	out := []Point{{1.5, 1.5}, {2.5, 0.5}, {-0.5, 0.5}, {1.01, 1.01}}
	for _, p := range in {
		if !l.Contains(p) {
			t.Errorf("L should contain %v", p)
		}
	}
	for _, p := range out {
		if l.Contains(p) {
			t.Errorf("L should not contain %v", p)
		}
	}
}

func TestRingContainsBoundary(t *testing.T) {
	sq := unitSquare()
	if !sq.ContainsBoundary(Pt(1, 0.5), 1e-9) {
		t.Error("boundary point should be contained with ContainsBoundary")
	}
	if sq.ContainsBoundary(Pt(1.1, 0.5), 1e-9) {
		t.Error("outside point should not be contained")
	}
}

func TestPolygonWithHole(t *testing.T) {
	outer := Ring{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}
	hole := Ring{Pt(1, 1), Pt(3, 1), Pt(3, 3), Pt(1, 3)}
	pg := Polygon{Outer: outer, Holes: []Ring{hole}}
	pg.Normalize()

	if a := pg.Area(); a != 16-4 {
		t.Errorf("area = %v, want 12", a)
	}
	if !pg.Contains(Pt(0.5, 0.5)) {
		t.Error("annulus should contain corner region point")
	}
	if pg.Contains(Pt(2, 2)) {
		t.Error("annulus should not contain hole center")
	}
	if pg.Contains(Pt(5, 5)) {
		t.Error("annulus should not contain exterior point")
	}
	// Symmetric hole keeps centroid at the outer centroid.
	if c := pg.Centroid(); !c.NearEq(Pt(2, 2), 1e-9) {
		t.Errorf("centroid = %v, want (2,2)", c)
	}
	if n := pg.VertexCount(); n != 8 {
		t.Errorf("VertexCount = %d, want 8", n)
	}
}

func TestPolygonNormalize(t *testing.T) {
	outer := unitSquare()
	outer.Reverse()                                                      // make CW
	hole := Ring{Pt(0.2, 0.2), Pt(0.8, 0.2), Pt(0.8, 0.8), Pt(0.2, 0.8)} // CCW
	pg := Polygon{Outer: outer, Holes: []Ring{hole}}
	pg.Normalize()
	if !pg.Outer.IsCCW() {
		t.Error("outer should be CCW after Normalize")
	}
	if pg.Holes[0].IsCCW() {
		t.Error("hole should be CW after Normalize")
	}
}

func TestPolygonValidate(t *testing.T) {
	if err := NewPolygon(unitSquare()).Validate(); err != nil {
		t.Errorf("valid polygon: %v", err)
	}
	if err := NewPolygon(Ring{Pt(0, 0), Pt(1, 1)}).Validate(); !errors.Is(err, ErrDegenerate) {
		t.Errorf("2-vertex polygon err = %v, want ErrDegenerate", err)
	}
	if err := NewPolygon(Ring{Pt(0, 0), Pt(1, 1), Pt(2, 2)}).Validate(); !errors.Is(err, ErrDegenerate) {
		t.Errorf("collinear polygon err = %v, want ErrDegenerate", err)
	}
	bad := Polygon{Outer: unitSquare(), Holes: []Ring{{Pt(0, 0)}}}
	if err := bad.Validate(); !errors.Is(err, ErrDegenerate) {
		t.Errorf("bad hole err = %v, want ErrDegenerate", err)
	}
}

func TestPolygonClone(t *testing.T) {
	pg := Polygon{Outer: unitSquare(), Holes: []Ring{{Pt(0.2, 0.2), Pt(0.4, 0.2), Pt(0.3, 0.4)}}}
	c := pg.Clone()
	c.Outer[0] = Pt(99, 99)
	c.Holes[0][0] = Pt(99, 99)
	if pg.Outer[0].Eq(Pt(99, 99)) || pg.Holes[0][0].Eq(Pt(99, 99)) {
		t.Error("Clone should deep-copy rings")
	}
}

func TestPolygonEdges(t *testing.T) {
	pg := Polygon{Outer: unitSquare(), Holes: []Ring{{Pt(0.2, 0.2), Pt(0.4, 0.2), Pt(0.3, 0.4)}}}
	count := 0
	pg.Edges(func(a, b Point) bool { count++; return true })
	if count != 7 {
		t.Errorf("edge count = %d, want 7", count)
	}
	// Early stop.
	count = 0
	pg.Edges(func(a, b Point) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("early-stop edge count = %d, want 3", count)
	}
}

func TestRectRing(t *testing.T) {
	r := RectRing(BBox{0, 0, 2, 3})
	if !r.IsCCW() || r.Area() != 6 {
		t.Errorf("RectRing bad: ccw=%v area=%v", r.IsCCW(), r.Area())
	}
}

func TestRegularRing(t *testing.T) {
	r := RegularRing(Pt(0, 0), 1, 64)
	if !r.IsCCW() {
		t.Error("regular ring should be CCW")
	}
	// Area approaches pi for many vertices.
	if a := r.Area(); math.Abs(a-math.Pi) > 0.01 {
		t.Errorf("64-gon area = %v, want ~pi", a)
	}
	if len(RegularRing(Pt(0, 0), 1, 2)) != 3 {
		t.Error("n<3 should clamp to 3")
	}
	if !r.Contains(Pt(0, 0)) {
		t.Error("regular ring should contain its center")
	}
}

func TestStarRing(t *testing.T) {
	s := StarRing(Pt(0, 0), 2, 1, 5)
	if len(s) != 10 {
		t.Errorf("star vertex count = %d, want 10", len(s))
	}
	if !s.Contains(Pt(0, 0)) {
		t.Error("star should contain its center")
	}
	// A point at radius 1.5 along an inner-vertex direction is outside.
	thetaInner := math.Pi / 5
	p := Pt(1.7*math.Cos(thetaInner), 1.7*math.Sin(thetaInner))
	if s.Contains(p) {
		t.Errorf("star should not contain %v (concavity)", p)
	}
}

// Property: for any simple convex ring (regular polygon), Contains agrees
// with a distance test against the inradius/circumradius.
func TestRegularRingContainsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ring := RegularRing(Pt(0, 0), 1, 48)
	inradius := math.Cos(math.Pi / 48) // apothem of the 48-gon
	for i := 0; i < 2000; i++ {
		p := Pt(rng.Float64()*3-1.5, rng.Float64()*3-1.5)
		d := p.Norm()
		got := ring.Contains(p)
		if d < inradius-1e-9 && !got {
			t.Fatalf("point %v at r=%v inside inradius but not contained", p, d)
		}
		if d > 1+1e-9 && got {
			t.Fatalf("point %v at r=%v outside circumradius but contained", p, d)
		}
	}
}

// Property: ring area is invariant under translation and |area| under
// reversal.
func TestRingAreaInvariance(t *testing.T) {
	f := func(dx, dy int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ring := RegularRing(Pt(0, 0), 1+rng.Float64()*10, 3+rng.Intn(20))
		a := ring.Area()
		moved := make(Ring, len(ring))
		for i, p := range ring {
			moved[i] = p.Add(Pt(float64(dx), float64(dy)))
		}
		rev := ring.Clone()
		rev.Reverse()
		return math.Abs(moved.Area()-a) < 1e-6*math.Max(1, a) &&
			math.Abs(rev.Area()-a) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
