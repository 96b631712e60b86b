package geom

import (
	"errors"
	"math"
	"testing"
)

func unitSquare() Ring { return Ring{Point{0, 0}, Point{1, 0}, Point{1, 1}, Point{0, 1}} }

func lShape() Ring {
	// An L: 2x2 square missing its top-right 1x1 quadrant. Area 3.
	return Ring{Point{0, 0}, Point{2, 0}, Point{2, 1}, Point{1, 1}, Point{1, 2}, Point{0, 2}}
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
	if a := (Ring{Point{0, 0}, Point{1, 1}}).SignedArea(); a != 0 {
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

func TestPolygonWithHole(t *testing.T) {
	outer := Ring{Point{0, 0}, Point{4, 0}, Point{4, 4}, Point{0, 4}}
	hole := Ring{Point{1, 1}, Point{3, 1}, Point{3, 3}, Point{1, 3}}
	pg := Polygon{Outer: outer, Holes: []Ring{hole}}
	pg.Normalize()

	if a := pg.Outer.Area() - pg.Holes[0].Area(); a != 16-4 {
		t.Errorf("area = %v, want 12", a)
	}
	if !pg.Contains(Point{0.5, 0.5}) {
		t.Error("annulus should contain corner region point")
	}
	if pg.Contains(Point{2, 2}) {
		t.Error("annulus should not contain hole center")
	}
	if pg.Contains(Point{5, 5}) {
		t.Error("annulus should not contain exterior point")
	}
	if n := pg.VertexCount(); n != 8 {
		t.Errorf("VertexCount = %d, want 8", n)
	}
}

func TestPolygonNormalize(t *testing.T) {
	outer := unitSquare()
	outer.Reverse()                                                                  // make CW
	hole := Ring{Point{0.2, 0.2}, Point{0.8, 0.2}, Point{0.8, 0.8}, Point{0.2, 0.8}} // CCW
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
	if err := NewPolygon(Ring{Point{0, 0}, Point{1, 1}}).Validate(); !errors.Is(err, ErrDegenerate) {
		t.Errorf("2-vertex polygon err = %v, want ErrDegenerate", err)
	}
	if err := NewPolygon(Ring{Point{0, 0}, Point{1, 1}, Point{2, 2}}).Validate(); !errors.Is(err, ErrDegenerate) {
		t.Errorf("collinear polygon err = %v, want ErrDegenerate", err)
	}
	bad := Polygon{Outer: unitSquare(), Holes: []Ring{{Point{0, 0}}}}
	if err := bad.Validate(); !errors.Is(err, ErrDegenerate) {
		t.Errorf("bad hole err = %v, want ErrDegenerate", err)
	}
}

func TestPolygonClone(t *testing.T) {
	pg := Polygon{Outer: unitSquare(), Holes: []Ring{{Point{0.2, 0.2}, Point{0.4, 0.2}, Point{0.3, 0.4}}}}
	c := pg.Clone()
	c.Outer[0] = Point{99, 99}
	c.Holes[0][0] = Point{99, 99}
	if pg.Outer[0] == (Point{99, 99}) || pg.Holes[0][0] == (Point{99, 99}) {
		t.Error("Clone should deep-copy rings")
	}
}

func TestPolygonEdges(t *testing.T) {
	pg := Polygon{Outer: unitSquare(), Holes: []Ring{{Point{0.2, 0.2}, Point{0.4, 0.2}, Point{0.3, 0.4}}}}
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

func TestStarRing(t *testing.T) {
	s := StarRing(Point{0, 0}, 2, 1, 5)
	if len(s) != 10 {
		t.Errorf("star vertex count = %d, want 10", len(s))
	}
	if !s.Contains(Point{0, 0}) {
		t.Error("star should contain its center")
	}
	// A point at radius 1.5 along an inner-vertex direction is outside.
	thetaInner := math.Pi / 5
	p := Point{1.7 * math.Cos(thetaInner), 1.7 * math.Sin(thetaInner)}
	if s.Contains(p) {
		t.Errorf("star should not contain %v (concavity)", p)
	}
}
