package geom_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/geom/geomtest"
)

func TestNearEq(t *testing.T) {
	if !geomtest.NearEq(geom.Point{X: 1, Y: 1}, geom.Point{X: 1.0001, Y: 0.9999}, 0.001) {
		t.Error("NearEq should accept within eps")
	}
	if geomtest.NearEq(geom.Point{X: 1, Y: 1}, geom.Point{X: 1.01, Y: 1}, 0.001) {
		t.Error("NearEq should reject beyond eps")
	}
}

func TestRingContainsBoundary(t *testing.T) {
	sq := geom.NewPolygon(geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}})
	if !geomtest.ContainsBoundary(sq, geom.Point{X: 1, Y: 0.5}, 1e-9) {
		t.Error("boundary point should be contained with ContainsBoundary")
	}
	if geomtest.ContainsBoundary(sq, geom.Point{X: 1.1, Y: 0.5}, 1e-9) {
		t.Error("outside point should not be contained")
	}
	sq.Holes = []geom.Ring{{{X: 0.25, Y: 0.25}, {X: 0.75, Y: 0.25}, {X: 0.75, Y: 0.75}, {X: 0.25, Y: 0.75}}}
	if geomtest.ContainsBoundary(sq, geom.Point{X: 0.5, Y: 0.5}, 1e-9) {
		t.Error("point inside the hole should not be contained")
	}
	if !geomtest.ContainsBoundary(sq, geom.Point{X: 0.25, Y: 0.5}, 1e-9) {
		t.Error("point on the hole's edge should be contained")
	}
}

func TestRegularRing(t *testing.T) {
	r := geomtest.RegularRing(geom.Point{X: 0, Y: 0}, 1, 64)
	if !r.IsCCW() {
		t.Error("regular ring should be CCW")
	}
	// Area approaches pi for many vertices.
	if a := r.Area(); math.Abs(a-math.Pi) > 0.01 {
		t.Errorf("64-gon area = %v, want ~pi", a)
	}
	if len(geomtest.RegularRing(geom.Point{X: 0, Y: 0}, 1, 2)) != 3 {
		t.Error("n<3 should clamp to 3")
	}
	if !r.Contains(geom.Point{X: 0, Y: 0}) {
		t.Error("regular ring should contain its center")
	}
}

// Property: for any simple convex ring (regular polygon), Contains agrees
// with a distance test against the inradius/circumradius.
func TestRegularRingContainsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ring := geomtest.RegularRing(geom.Point{X: 0, Y: 0}, 1, 48)
	inradius := math.Cos(math.Pi / 48) // apothem of the 48-gon
	for i := 0; i < 2000; i++ {
		p := geom.Point{X: rng.Float64()*3 - 1.5, Y: rng.Float64()*3 - 1.5}
		d := math.Hypot(p.X, p.Y)
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
		ring := geomtest.RegularRing(geom.Point{X: 0, Y: 0}, 1+rng.Float64()*10, 3+rng.Intn(20))
		a := ring.Area()
		moved := make(geom.Ring, len(ring))
		for i, p := range ring {
			moved[i] = p.Add(geom.Point{X: float64(dx), Y: float64(dy)})
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

// Property: successive half-plane clips commute with bbox clipping — the
// Voronoi construction's core assumption.
func TestHalfPlaneMatchesBBoxClip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 100; i++ {
		ring := geomtest.RegularRing(geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}, 1+rng.Float64()*4, 24)
		cut := rng.Float64() * 10
		// Clip with x <= cut two ways.
		viaHP := geom.ClipRingToHalfPlane(ring, geom.Point{X: cut, Y: 0}, geom.Point{X: 1, Y: 0})
		viaBox := geom.ClipToBox(ring, geom.BBox{MinX: -100, MinY: -100, MaxX: cut, MaxY: 100})
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
		ring := geomtest.RegularRing(geom.Point{X: rng.Float64()*10 - 5, Y: rng.Float64()*10 - 5},
			0.5+rng.Float64()*5, 3+rng.Intn(30))
		box := geom.NewBBox(rng.Float64()*10-5, rng.Float64()*10-5,
			rng.Float64()*10-5, rng.Float64()*10-5)
		got := geom.ClipToBox(ring, box)
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

func TestSimplifyRingPreservesShape(t *testing.T) {
	// Dense circle: simplification with a small tolerance should keep the
	// area close to the original.
	ring := geomtest.RegularRing(geom.Point{X: 0, Y: 0}, 10, 256)
	got := geom.SimplifyRing(ring, 0.05)
	if len(got) >= len(ring) {
		t.Errorf("ring did not shrink: %d -> %d", len(ring), len(got))
	}
	if len(got) < 3 {
		t.Fatalf("ring degenerated to %d vertices", len(got))
	}
	if math.Abs(got.Area()-ring.Area())/ring.Area() > 0.02 {
		t.Errorf("area drifted: %v -> %v", ring.Area(), got.Area())
	}
}
