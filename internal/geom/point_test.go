package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -4)
	if got := p.Add(q); !got.Eq(Pt(4, -2)) {
		t.Errorf("Add = %v, want (4,-2)", got)
	}
	if got := p.Sub(q); !got.Eq(Pt(-2, 6)) {
		t.Errorf("Sub = %v, want (-2,6)", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(2, 4)) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v, want -5", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v, want -10", got)
	}
}

func TestPointDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Pt(0, 0).DistSq(Pt(3, 4)); d != 25 {
		t.Errorf("DistSq = %v, want 25", d)
	}
	if n := Pt(3, 4).Norm(); n != 5 {
		t.Errorf("Norm = %v, want 5", n)
	}
}

func TestPointLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); !got.Eq(a) {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); !got.Eq(b) {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); !got.Eq(Pt(5, 10)) {
		t.Errorf("Lerp(0.5) = %v, want (5,10)", got)
	}
}

func TestNearEq(t *testing.T) {
	if !Pt(1, 1).NearEq(Pt(1.0001, 0.9999), 0.001) {
		t.Error("NearEq should accept within eps")
	}
	if Pt(1, 1).NearEq(Pt(1.01, 1), 0.001) {
		t.Error("NearEq should reject beyond eps")
	}
}

func TestOrientation(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if got := Orientation(a, b, Pt(1, 1)); got != 1 {
		t.Errorf("left turn = %d, want 1", got)
	}
	if got := Orientation(a, b, Pt(1, -1)); got != -1 {
		t.Errorf("right turn = %d, want -1", got)
	}
	if got := Orientation(a, b, Pt(2, 0)); got != 0 {
		t.Errorf("collinear = %d, want 0", got)
	}
}

func TestSegmentDistSq(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 3), 9},    // above the middle
		{Pt(-3, 4), 25},  // beyond a
		{Pt(13, -4), 25}, // beyond b
		{Pt(7, 0), 0},    // on the segment
	}
	for _, tc := range tests {
		if got := SegmentDistSq(tc.p, a, b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("SegmentDistSq(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Degenerate segment.
	if got := SegmentDistSq(Pt(3, 4), a, a); got != 25 {
		t.Errorf("degenerate segment dist = %v, want 25", got)
	}
}

func TestOnSegment(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 10)
	if !OnSegment(Pt(5, 5), a, b, 1e-9) {
		t.Error("midpoint should be on segment")
	}
	if OnSegment(Pt(5, 6), a, b, 1e-9) {
		t.Error("offset point should not be on segment")
	}
	if !OnSegment(Pt(5, 6), a, b, 1) {
		t.Error("offset point within eps should count")
	}
}

// Property: orientation is antisymmetric under swapping the last two
// arguments.
func TestOrientationAntisymmetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return Orientation(a, b, c) == -Orientation(a, c, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
