package workload

import (
	"testing"

	"repro/internal/mercator"
)

func TestNYCScene(t *testing.T) {
	s := NYC(5000, 1)
	if s.Taxi.Len() != 5000 {
		t.Errorf("taxi points = %d", s.Taxi.Len())
	}
	if s.Neighborhoods.Len() != NeighborhoodCount {
		t.Errorf("neighborhoods = %d, want %d", s.Neighborhoods.Len(), NeighborhoodCount)
	}
	if s.Tracts.Len() != TractCount {
		t.Errorf("tracts = %d, want %d", s.Tracts.Len(), TractCount)
	}
	if s.Grid.Len() != 64*64 {
		t.Errorf("grid = %d", s.Grid.Len())
	}
	if s.Bounds.Union(s.Taxi.Bounds()) != s.Bounds {
		t.Error("taxi points escape NYC bounds")
	}
	if b := s.Bounds.Expand(1); b.Union(s.Neighborhoods.Bounds()) != b {
		t.Error("neighborhoods escape NYC bounds")
	}
}

func TestTimeWindows(t *testing.T) {
	jan := Jan2009()
	if jan.End-jan.Start != 31*86400 {
		t.Errorf("January span = %d s", jan.End-jan.Start)
	}
	w0 := JanWeek(0)
	if w0.Start != jan.Start || w0.End-w0.Start != 7*86400 {
		t.Errorf("week 0 = %+v", w0)
	}
	w3 := JanWeek(3)
	if w3.End > jan.End {
		t.Errorf("week 3 runs past January: %+v vs %+v", w3, jan)
	}
	// Generated timestamps actually fall inside January.
	s := NYC(1000, 2)
	tmin, tmax, _ := s.Taxi.TimeRange()
	if tmin < jan.Start || tmax >= jan.End {
		t.Errorf("taxi times [%d,%d] outside January", tmin, tmax)
	}
}

func TestGroundMeters(t *testing.T) {
	// At NYC's latitude mercator meters are stretched by ~1/cos(40.7)≈1.32.
	got := GroundMeters(100)
	if got < 125 || got > 140 {
		t.Errorf("GroundMeters(100) = %v, want ~132", got)
	}
}

func TestAdHocPolygon(t *testing.T) {
	rs := AdHocPolygon(1)
	if rs.Len() != 1 {
		t.Fatalf("regions = %d", rs.Len())
	}
	if err := rs.Regions[0].Poly.Validate(); err != nil {
		t.Fatal(err)
	}
	if !mercator.NYCBounds().Intersects(rs.Bounds()) {
		t.Error("ad-hoc polygon should be inside NYC")
	}
}
