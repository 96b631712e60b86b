package geom

import (
	"math"
	"testing"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v, want (4,-2)", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v, want (-2,6)", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
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
	o, p := Point{0, 0}, Point{3, 4}
	if d := o.Dist(p); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := o.DistSq(p); d != 25 {
		t.Errorf("DistSq = %v, want 25", d)
	}
}

func TestPointLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v, want (5,10)", got)
	}
}

func TestSegmentDistSq(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	tests := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 9},    // above the middle
		{Point{-3, 4}, 25},  // beyond a
		{Point{13, -4}, 25}, // beyond b
		{Point{7, 0}, 0},    // on the segment
	}
	for _, tc := range tests {
		if got := SegmentDistSq(tc.p, a, b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("SegmentDistSq(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Degenerate segment.
	if got := SegmentDistSq(Point{3, 4}, a, a); got != 25 {
		t.Errorf("degenerate segment dist = %v, want 25", got)
	}
}
