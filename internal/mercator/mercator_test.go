package mercator

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/geomtest"
)

func TestProjectOrigin(t *testing.T) {
	p := Project(LngLat{0, 0})
	if !geomtest.NearEq(p, geom.Point{}, 1e-9) {
		t.Errorf("Project(0,0) = %v, want origin", p)
	}
}

func TestProjectKnownPoint(t *testing.T) {
	// 180°E maps to half the world circumference.
	p := Project(LngLat{Lng: 180, Lat: 0})
	want := math.Pi * EarthRadius
	if math.Abs(p.X-want) > 1e-6 {
		t.Errorf("x at 180E = %v, want %v", p.X, want)
	}
	// The mercator world is square: y at MaxLatitude equals x at 180E.
	p = Project(LngLat{Lng: 0, Lat: MaxLatitude})
	if math.Abs(p.Y-want) > 1 {
		t.Errorf("y at max lat = %v, want %v", p.Y, want)
	}
}

func TestProjectClampsLatitude(t *testing.T) {
	a := Project(LngLat{0, 89.9})
	b := Project(LngLat{0, MaxLatitude})
	if a.Y != b.Y {
		t.Errorf("latitudes beyond the bound should clamp: %v vs %v", a.Y, b.Y)
	}
}

func TestProjectUnprojectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		ll := LngLat{
			Lng: rng.Float64()*360 - 180,
			Lat: rng.Float64()*160 - 80,
		}
		got := Unproject(Project(ll))
		if math.Abs(got.Lng-ll.Lng) > 1e-9 || math.Abs(got.Lat-ll.Lat) > 1e-9 {
			t.Fatalf("round trip %v -> %v", ll, got)
		}
	}
}

func TestGroundResolution(t *testing.T) {
	if g := GroundResolution(0); g != 1 {
		t.Errorf("ground resolution at equator = %v, want 1", g)
	}
	if g := GroundResolution(60); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("ground resolution at 60N = %v, want 0.5", g)
	}
}

// tileAt returns the tile containing the geographic coordinate at a zoom
// level. X grows east, Y grows south (slippy-map convention).
func tileAt(ll LngLat, zoom int) Tile {
	n := math.Exp2(float64(zoom))
	lat := clamp(ll.Lat, -MaxLatitude, MaxLatitude) * math.Pi / 180
	x := int(math.Floor((ll.Lng + 180) / 360 * n))
	y := int(math.Floor((1 - math.Log(math.Tan(lat)+1/math.Cos(lat))/math.Pi) / 2 * n))
	last := int(n) - 1
	return Tile{Z: zoom, X: min(max(x, 0), last), Y: min(max(y, 0), last)}
}

func TestTileAt(t *testing.T) {
	// Zoom 0 has a single tile.
	if tl := tileAt(LngLat{-73.98, 40.75}, 0); tl != (Tile{0, 0, 0}) {
		t.Errorf("z0 tile = %v, want 0/0/0", tl)
	}
	// Zoom 1: NYC is in the northwest quadrant (x=0, y=0).
	if tl := tileAt(LngLat{-73.98, 40.75}, 1); tl != (Tile{1, 0, 0}) {
		t.Errorf("z1 tile = %v, want 1/0/0", tl)
	}
	// Sydney: southeast quadrant.
	if tl := tileAt(LngLat{151.2, -33.9}, 1); tl != (Tile{1, 1, 1}) {
		t.Errorf("z1 Sydney tile = %v, want 1/1/1", tl)
	}
}

func TestTileBBoxContainsItsPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		ll := LngLat{rng.Float64()*360 - 180, rng.Float64()*160 - 80}
		z := rng.Intn(18)
		tl := tileAt(ll, z)
		if !tl.BBox().Contains(Project(ll)) {
			t.Fatalf("tile %v does not contain %v", tl, ll)
		}
	}
}

func TestNYCBounds(t *testing.T) {
	b := NYCBounds()
	if b.IsEmpty() {
		t.Fatal("NYC bounds should not be empty")
	}
	// NYC is roughly 47km x 60km in mercator meters (stretched by ~1/cos40.7).
	if b.Width() < 40000 || b.Width() > 80000 {
		t.Errorf("NYC width = %v m, want 40-80 km", b.Width())
	}
	if !b.Contains(Project(LngLat{-73.98, 40.75})) {
		t.Error("midtown should be inside NYC bounds")
	}
}
