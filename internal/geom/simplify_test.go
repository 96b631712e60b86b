package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimplifyLineKeepsEndpoints(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0.01}, {2, -0.01}, {3, 0}, {4, 5}, {5, 0}}
	got := SimplifyLine(pts, 0.1)
	if got[0] != pts[0] || got[len(got)-1] != pts[len(pts)-1] {
		t.Error("endpoints must be retained")
	}
	// The spike at (4,5) must survive.
	found := false
	for _, p := range got {
		if p == (Point{4, 5}) {
			found = true
		}
	}
	if !found {
		t.Error("spike vertex should be retained")
	}
	// Jitter vertices should be dropped.
	if len(got) >= len(pts) {
		t.Errorf("simplification did not drop vertices: %d -> %d", len(pts), len(got))
	}
}

func TestSimplifyLineNoTolerance(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 0}}
	got := SimplifyLine(pts, 0)
	if len(got) != 3 {
		t.Errorf("tol=0 should keep everything, got %d", len(got))
	}
	// Result must be a copy.
	got[0] = Point{99, 99}
	if pts[0] == (Point{99, 99}) {
		t.Error("SimplifyLine should not alias its input")
	}
}

func TestSimplifyLineCollinear(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}
	got := SimplifyLine(pts, 0.001)
	if len(got) != 2 {
		t.Errorf("collinear line should simplify to 2 points, got %d", len(got))
	}
}

func TestSimplifyRingSmallInputUnchanged(t *testing.T) {
	sq := unitSquare()
	got := SimplifyRing(sq, 10)
	if len(got) != 4 {
		t.Errorf("4-vertex ring should be returned as-is, got %d vertices", len(got))
	}
}

// Property: Douglas-Peucker output error is bounded by tol — every dropped
// vertex lies within tol of the simplified chain.
func TestSimplifyLineErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		n := 10 + rng.Intn(100)
		pts := make([]Point, n)
		x := 0.0
		for i := range pts {
			x += rng.Float64()
			pts[i] = Point{x, rng.Float64() * 10}
		}
		tol := 0.5 + rng.Float64()*2
		simp := SimplifyLine(pts, tol)
		// For each original point, distance to the nearest simplified
		// segment must be <= tol (DP guarantees this for the segment that
		// replaced it; nearest-segment distance is a lower bound).
		for _, p := range pts {
			best := math.Inf(1)
			for i := 0; i+1 < len(simp); i++ {
				if d := SegmentDistSq(p, simp[i], simp[i+1]); d < best {
					best = d
				}
			}
			if math.Sqrt(best) > tol+1e-9 {
				t.Fatalf("iter %d: point %v is %v from chain, tol %v", iter, p, math.Sqrt(best), tol)
			}
		}
	}
}
