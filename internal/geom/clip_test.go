package geom

import (
	"math"
	"math/rand"
	"testing"
)

// clipToBox clips r to b with four half-plane clips: the Sutherland–Hodgman
// pass the Voronoi cells are cut with, once per side of the box.
func clipToBox(r Ring, b BBox) Ring {
	if b.IsEmpty() {
		return nil
	}
	for _, h := range [4][2]Point{{Point{b.MinX, 0}, Point{-1, 0}}, {Point{b.MaxX, 0}, Point{1, 0}},
		{Point{0, b.MinY}, Point{0, -1}}, {Point{0, b.MaxY}, Point{0, 1}}} {
		r = ClipRingToHalfPlane(r, h[0], h[1])
	}
	return r
}

func TestClipRingFullyInside(t *testing.T) {
	sq := unitSquare()
	got := clipToBox(sq, BBox{-1, -1, 2, 2})
	if got.Area() != 1 {
		t.Errorf("fully-inside clip area = %v, want 1", got.Area())
	}
}

func TestClipRingFullyOutside(t *testing.T) {
	sq := unitSquare()
	if got := clipToBox(sq, BBox{5, 5, 6, 6}); got != nil {
		t.Errorf("fully-outside clip = %v, want nil", got)
	}
}

func TestClipRingHalf(t *testing.T) {
	sq := unitSquare()
	got := clipToBox(sq, BBox{0.5, -1, 2, 2})
	if math.Abs(got.Area()-0.5) > 1e-12 {
		t.Errorf("half clip area = %v, want 0.5", got.Area())
	}
}

func TestClipRingCorner(t *testing.T) {
	sq := unitSquare()
	got := clipToBox(sq, BBox{0.5, 0.5, 2, 2})
	if math.Abs(got.Area()-0.25) > 1e-12 {
		t.Errorf("corner clip area = %v, want 0.25", got.Area())
	}
}

func TestClipNonConvexRing(t *testing.T) {
	l := lShape() // area 3 within [0,2]^2
	got := clipToBox(l, BBox{0, 0, 2, 0.5})
	// Bottom strip of the L is a full 2x0.5 rectangle.
	if math.Abs(got.Area()-1.0) > 1e-12 {
		t.Errorf("L bottom strip area = %v, want 1", got.Area())
	}
}

func TestClipEmptyInputs(t *testing.T) {
	if got := clipToBox(nil, BBox{0, 0, 1, 1}); got != nil {
		t.Errorf("nil ring clip = %v, want nil", got)
	}
	if got := clipToBox(unitSquare(), EmptyBBox()); got != nil {
		t.Errorf("empty box clip = %v, want nil", got)
	}
}

func TestClipSegmentToBBox(t *testing.T) {
	box := BBox{0, 0, 10, 10}
	p0, p1, ok := ClipSegmentToBBox(Point{-5, 5}, Point{15, 5}, box)
	if !ok || p0.Dist(Point{0, 5}) > 1e-12 || p1.Dist(Point{10, 5}) > 1e-12 {
		t.Errorf("horizontal clip = %v %v %v", p0, p1, ok)
	}
	if _, _, ok := ClipSegmentToBBox(Point{-5, 20}, Point{15, 20}, box); ok {
		t.Error("segment above box should not clip")
	}
	// Fully inside.
	p0, p1, ok = ClipSegmentToBBox(Point{1, 1}, Point{2, 2}, box)
	if !ok || p0 != (Point{1, 1}) || p1 != (Point{2, 2}) {
		t.Errorf("inside clip altered segment: %v %v", p0, p1)
	}
	// Diagonal crossing a corner region.
	p0, p1, ok = ClipSegmentToBBox(Point{-5, -5}, Point{15, 15}, box)
	if !ok || p0.Dist(Point{0, 0}) > 1e-12 || p1.Dist(Point{10, 10}) > 1e-12 {
		t.Errorf("diagonal clip = %v %v %v", p0, p1, ok)
	}
	// Degenerate (point) segment inside.
	if _, _, ok = ClipSegmentToBBox(Point{5, 5}, Point{5, 5}, box); !ok {
		t.Error("point segment inside box should clip ok")
	}
}

func TestClipRingToHalfPlane(t *testing.T) {
	sq := unitSquare()
	// Keep the left half: plane through (0.5, 0) with normal +X.
	got := ClipRingToHalfPlane(sq, Point{0.5, 0}, Point{1, 0})
	if math.Abs(got.Area()-0.5) > 1e-12 {
		t.Errorf("left-half area = %v, want 0.5", got.Area())
	}
	for _, p := range got {
		if p.X > 0.5+1e-12 {
			t.Errorf("vertex %v on wrong side", p)
		}
	}
	// Keep everything: plane far to the right.
	got = ClipRingToHalfPlane(sq, Point{10, 0}, Point{1, 0})
	if math.Abs(got.Area()-1) > 1e-12 {
		t.Errorf("full-keep area = %v, want 1", got.Area())
	}
	// Keep nothing: plane far to the left.
	if got = ClipRingToHalfPlane(sq, Point{-10, 0}, Point{1, 0}); got != nil {
		t.Errorf("full-drop = %v, want nil", got)
	}
	// Diagonal half-plane: keep below y=x (normal (-1,1)/sqrt2 through origin).
	got = ClipRingToHalfPlane(sq, Point{0, 0}, Point{-1, 1})
	if math.Abs(got.Area()-0.5) > 1e-12 {
		t.Errorf("diagonal-half area = %v, want 0.5", got.Area())
	}
}

// Property: clipping a ring to its own bounding box preserves its area.
func TestClipRingIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		ring := StarRing(Point{rng.Float64() * 4, rng.Float64() * 4}, 2, 1, 3+rng.Intn(8))
		got := clipToBox(ring, ring.BBox().Expand(1e-9))
		if got == nil || math.Abs(got.Area()-ring.Area()) > 1e-6 {
			t.Fatalf("identity clip changed area: %v -> %v", ring.Area(), got.Area())
		}
	}
}
