package data

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
)

func TestCSVRoundTrip(t *testing.T) {
	ps := Generate(NYCTaxiConfig(200, 2009, time.January, 13))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "taxi")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ps.Len() {
		t.Fatalf("round trip lost rows: %d vs %d", got.Len(), ps.Len())
	}
	if len(got.Attrs) != len(ps.Attrs) {
		t.Fatalf("round trip lost attrs: %d vs %d", len(got.Attrs), len(ps.Attrs))
	}
	for i := 0; i < ps.Len(); i++ {
		if got.X[i] != ps.X[i] || got.Y[i] != ps.Y[i] || got.T[i] != ps.T[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	for k := range ps.Attrs {
		if got.Attrs[k].Name != ps.Attrs[k].Name {
			t.Fatalf("attr %d name %q vs %q", k, got.Attrs[k].Name, ps.Attrs[k].Name)
		}
		for i := range ps.Attrs[k].Values {
			if got.Attrs[k].Values[i] != ps.Attrs[k].Values[i] {
				t.Fatalf("attr %q row %d differs", ps.Attrs[k].Name, i)
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n"), "x"); err == nil {
		t.Error("bad header should fail")
	}
	if _, err := ReadCSV(strings.NewReader("x,y,t\n1,2,notanint\n"), "x"); err == nil {
		t.Error("bad timestamp should fail")
	}
	if _, err := ReadCSV(strings.NewReader("x,y,t,fare\n1,2,3,bad\n"), "x"); err == nil {
		t.Error("bad attr should fail")
	}
	if _, err := ReadCSV(strings.NewReader(""), "x"); err == nil {
		t.Error("empty input should fail")
	}
	// Invalid point set refuses to encode.
	bad := &PointSet{X: []float64{1}, Y: nil}
	if err := WriteCSV(&bytes.Buffer{}, bad); err == nil {
		t.Error("invalid set should fail to encode")
	}
}

func TestGeoJSONRoundTrip(t *testing.T) {
	rs := VoronoiRegions("nbhd", testBounds(), 12, 21, VoronoiOptions{JitterFrac: 0.05})
	// Add a polygon with a hole to cover the multi-ring path.
	holed := geom.Polygon{
		Outer: geom.RectRing(geom.BBox{MinX: 100, MinY: 100, MaxX: 300, MaxY: 300}),
		Holes: []geom.Ring{geom.RectRing(geom.BBox{MinX: 150, MinY: 150, MaxX: 250, MaxY: 250})},
	}
	holed.Normalize()
	rs.Regions = append(rs.Regions, Region{ID: 12, Name: "holed", Poly: holed})

	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGeoJSON(&buf, "nbhd")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rs.Len() {
		t.Fatalf("round trip: %d regions vs %d", got.Len(), rs.Len())
	}
	for i, r := range rs.Regions {
		g := got.Regions[i]
		if g.ID != r.ID || g.Name != r.Name {
			t.Fatalf("region %d identity differs: %+v vs %+v", i, g, r)
		}
		if len(g.Poly.Outer) != len(r.Poly.Outer) {
			t.Fatalf("region %d outer ring %d vs %d vertices",
				i, len(g.Poly.Outer), len(r.Poly.Outer))
		}
		if len(g.Poly.Holes) != len(r.Poly.Holes) {
			t.Fatalf("region %d holes %d vs %d", i, len(g.Poly.Holes), len(r.Poly.Holes))
		}
		for j, ring := range append([]geom.Ring{r.Poly.Outer}, r.Poly.Holes...) {
			gring := g.Poly.Outer
			if j > 0 {
				gring = g.Poly.Holes[j-1]
			}
			if d := gring.Area() - ring.Area(); d > 1e-9 || d < -1e-9 {
				t.Fatalf("region %d ring %d area drifted by %v", i, j, d)
			}
		}
	}
}

func TestGeoJSONErrors(t *testing.T) {
	if _, err := ReadGeoJSON(strings.NewReader(`{"type":"Point"}`), "x"); err == nil {
		t.Error("non-collection root should fail")
	}
	bad := `{"type":"FeatureCollection","features":[
		{"type":"Feature","properties":{"id":0},
		 "geometry":{"type":"LineString","coordinates":[]}}]}`
	if _, err := ReadGeoJSON(strings.NewReader(bad), "x"); err == nil {
		t.Error("non-polygon geometry should fail")
	}
	empty := `{"type":"FeatureCollection","features":[
		{"type":"Feature","properties":{"id":0},
		 "geometry":{"type":"Polygon","coordinates":[]}}]}`
	if _, err := ReadGeoJSON(strings.NewReader(empty), "x"); err == nil {
		t.Error("ringless polygon should fail")
	}
	if _, err := ReadGeoJSON(strings.NewReader("{"), "x"); err == nil {
		t.Error("truncated json should fail")
	}
}

func TestGeoJSONNormalizesWinding(t *testing.T) {
	// A clockwise outer ring on input must come back CCW.
	in := `{"type":"FeatureCollection","features":[
		{"type":"Feature","properties":{"id":7,"name":"cw"},
		 "geometry":{"type":"Polygon","coordinates":[
			[[0,0],[0,10],[10,10],[10,0],[0,0]]]}}]}`
	rs, err := ReadGeoJSON(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Regions[0].Poly.Outer.IsCCW() {
		t.Error("outer ring should be normalized to CCW")
	}
}
