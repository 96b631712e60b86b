package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestClipRingFullyInside(t *testing.T) {
	sq := unitSquare()
	got := ClipRingToBBox(sq, BBox{-1, -1, 2, 2})
	if got.Area() != 1 {
		t.Errorf("fully-inside clip area = %v, want 1", got.Area())
	}
}

func TestClipRingFullyOutside(t *testing.T) {
	sq := unitSquare()
	if got := ClipRingToBBox(sq, BBox{5, 5, 6, 6}); got != nil {
		t.Errorf("fully-outside clip = %v, want nil", got)
	}
}

func TestClipRingHalf(t *testing.T) {
	sq := unitSquare()
	got := ClipRingToBBox(sq, BBox{0.5, -1, 2, 2})
	if math.Abs(got.Area()-0.5) > 1e-12 {
		t.Errorf("half clip area = %v, want 0.5", got.Area())
	}
}

func TestClipRingCorner(t *testing.T) {
	sq := unitSquare()
	got := ClipRingToBBox(sq, BBox{0.5, 0.5, 2, 2})
	if math.Abs(got.Area()-0.25) > 1e-12 {
		t.Errorf("corner clip area = %v, want 0.25", got.Area())
	}
}

func TestClipNonConvexRing(t *testing.T) {
	l := lShape() // area 3 within [0,2]^2
	got := ClipRingToBBox(l, BBox{0, 0, 2, 0.5})
	// Bottom strip of the L is a full 2x0.5 rectangle.
	if math.Abs(got.Area()-1.0) > 1e-12 {
		t.Errorf("L bottom strip area = %v, want 1", got.Area())
	}
}

func TestClipEmptyInputs(t *testing.T) {
	if got := ClipRingToBBox(nil, BBox{0, 0, 1, 1}); got != nil {
		t.Errorf("nil ring clip = %v, want nil", got)
	}
	if got := ClipRingToBBox(unitSquare(), EmptyBBox()); got != nil {
		t.Errorf("empty box clip = %v, want nil", got)
	}
}

func TestClipSegmentToBBox(t *testing.T) {
	box := BBox{0, 0, 10, 10}
	p0, p1, ok := ClipSegmentToBBox(Pt(-5, 5), Pt(15, 5), box)
	if !ok || !p0.NearEq(Pt(0, 5), 1e-12) || !p1.NearEq(Pt(10, 5), 1e-12) {
		t.Errorf("horizontal clip = %v %v %v", p0, p1, ok)
	}
	if _, _, ok := ClipSegmentToBBox(Pt(-5, 20), Pt(15, 20), box); ok {
		t.Error("segment above box should not clip")
	}
	// Fully inside.
	p0, p1, ok = ClipSegmentToBBox(Pt(1, 1), Pt(2, 2), box)
	if !ok || !p0.Eq(Pt(1, 1)) || !p1.Eq(Pt(2, 2)) {
		t.Errorf("inside clip altered segment: %v %v", p0, p1)
	}
	// Diagonal crossing a corner region.
	p0, p1, ok = ClipSegmentToBBox(Pt(-5, -5), Pt(15, 15), box)
	if !ok || !p0.NearEq(Pt(0, 0), 1e-12) || !p1.NearEq(Pt(10, 10), 1e-12) {
		t.Errorf("diagonal clip = %v %v %v", p0, p1, ok)
	}
	// Degenerate (point) segment inside.
	if _, _, ok = ClipSegmentToBBox(Pt(5, 5), Pt(5, 5), box); !ok {
		t.Error("point segment inside box should clip ok")
	}
}

func TestClipRingToHalfPlane(t *testing.T) {
	sq := unitSquare()
	// Keep the left half: plane through (0.5, 0) with normal +X.
	got := ClipRingToHalfPlane(sq, Pt(0.5, 0), Pt(1, 0))
	if math.Abs(got.Area()-0.5) > 1e-12 {
		t.Errorf("left-half area = %v, want 0.5", got.Area())
	}
	for _, p := range got {
		if p.X > 0.5+1e-12 {
			t.Errorf("vertex %v on wrong side", p)
		}
	}
	// Keep everything: plane far to the right.
	got = ClipRingToHalfPlane(sq, Pt(10, 0), Pt(1, 0))
	if math.Abs(got.Area()-1) > 1e-12 {
		t.Errorf("full-keep area = %v, want 1", got.Area())
	}
	// Keep nothing: plane far to the left.
	if got = ClipRingToHalfPlane(sq, Pt(-10, 0), Pt(1, 0)); got != nil {
		t.Errorf("full-drop = %v, want nil", got)
	}
	// Diagonal half-plane: keep below y=x (normal (-1,1)/sqrt2 through origin).
	got = ClipRingToHalfPlane(sq, Pt(0, 0), Pt(-1, 1))
	if math.Abs(got.Area()-0.5) > 1e-12 {
		t.Errorf("diagonal-half area = %v, want 0.5", got.Area())
	}
}

// Property: successive half-plane clips commute with bbox clipping — the
// Voronoi construction's core assumption.
func TestHalfPlaneMatchesBBoxClip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 100; i++ {
		ring := RegularRing(Pt(rng.Float64()*10, rng.Float64()*10), 1+rng.Float64()*4, 24)
		cut := rng.Float64() * 10
		// Clip with x <= cut two ways.
		viaHP := ClipRingToHalfPlane(ring, Pt(cut, 0), Pt(1, 0))
		viaBox := ClipRingToBBox(ring, BBox{MinX: -100, MinY: -100, MaxX: cut, MaxY: 100})
		av, bv := 0.0, 0.0
		if viaHP != nil {
			av = viaHP.Area()
		}
		if viaBox != nil {
			bv = viaBox.Area()
		}
		if math.Abs(av-bv) > 1e-9 {
			t.Fatalf("iter %d: half-plane %v vs bbox %v", i, av, bv)
		}
	}
}

// Property: clipped area never exceeds either the ring area or the box
// area, and clipped vertices all lie inside the (slightly expanded) box.
func TestClipRingAreaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		ring := RegularRing(Pt(rng.Float64()*10-5, rng.Float64()*10-5),
			0.5+rng.Float64()*5, 3+rng.Intn(30))
		box := NewBBox(rng.Float64()*10-5, rng.Float64()*10-5,
			rng.Float64()*10-5, rng.Float64()*10-5)
		got := ClipRingToBBox(ring, box)
		if got == nil {
			continue
		}
		a := got.Area()
		if a > ring.Area()+1e-9 {
			t.Fatalf("clip area %v exceeds ring area %v", a, ring.Area())
		}
		if a > box.Area()+1e-9 {
			t.Fatalf("clip area %v exceeds box area %v", a, box.Area())
		}
		big := box.Expand(1e-9)
		for _, p := range got {
			if !big.Contains(p) {
				t.Fatalf("clipped vertex %v outside box %v", p, box)
			}
		}
	}
}

// Property: clipping a ring to its own bounding box preserves its area.
func TestClipRingIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		ring := StarRing(Pt(rng.Float64()*4, rng.Float64()*4), 2, 1, 3+rng.Intn(8))
		got := ClipRingToBBox(ring, ring.BBox().Expand(1e-9))
		if got == nil || math.Abs(got.Area()-ring.Area()) > 1e-6 {
			t.Fatalf("identity clip changed area: %v -> %v", ring.Area(), got.Area())
		}
	}
}
