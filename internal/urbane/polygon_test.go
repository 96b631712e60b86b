package urbane

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"repro/internal/geom"
)

func polygonBody(ring [][2]float64, agg, attr string) map[string]any {
	b := map[string]any{"dataset": "taxi", "ring": ring, "agg": agg}
	if attr != "" {
		b["attr"] = attr
	}
	return b
}

var testRing = [][2]float64{{200, 200}, {800, 250}, {750, 800}, {250, 750}}

// TestPolygonEndpoint: a valid ad-hoc polygon aggregation answers with
// the exact count/value a direct framework execution produces, through
// the geoblocks path when enabled.
func TestPolygonEndpoint(t *testing.T) {
	f, taxi, _ := buildTestFramework(t)
	f.EnableGeoBlocks(6)
	s := NewServer(f)

	rec := doJSON(t, s, http.MethodPost, "/api/polygon", polygonBody(testRing, "sum", "fare"))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var got polygonResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Agg != "SUM" { // the response echoes the canonical agg spelling
		t.Errorf("agg = %q", got.Agg)
	}
	if got.Algorithm == "" {
		t.Error("algorithm missing from response")
	}

	// Cross-check against a direct exact computation.
	ring := make(geom.Ring, len(testRing))
	for i, v := range testRing {
		ring[i] = geom.Point{X: v[0], Y: v[1]}
	}
	pg := geom.NewPolygon(ring)
	var wantCount int64
	var wantSum float64
	fares := taxi.Attr("fare")
	for i := 0; i < taxi.Len(); i++ {
		if pg.Contains(geom.Point{X: taxi.X[i], Y: taxi.Y[i]}) {
			wantCount++
			wantSum += fares[i]
		}
	}
	if got.Count != wantCount {
		t.Errorf("count = %d, want %d", got.Count, wantCount)
	}
	if math.Abs(got.Value-wantSum) > 1e-7*(1+math.Abs(wantSum)) {
		t.Errorf("value = %g, want %g", got.Value, wantSum)
	}
}

// TestPolygonEndpointCached: the second identical request is a cache hit
// and byte-identical; geoblocks enabled vs disabled changes the algorithm
// string but not count/value.
func TestPolygonEndpointCached(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	f.EnableGeoBlocks(6)
	s := NewServer(f, WithCache(1<<20))

	body := polygonBody(testRing, "count", "")
	a := doJSON(t, s, http.MethodPost, "/api/polygon", body)
	if a.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", a.Code, a.Body)
	}
	b := doJSON(t, s, http.MethodPost, "/api/polygon", body)
	if b.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatalf("cached response diverged: %s vs %s", a.Body, b.Body)
	}
	st := s.CacheStats()
	if st.Hits == 0 {
		t.Errorf("no cache hit recorded: %+v", st)
	}

	// A disabled-hierarchy server computes the same numbers via raster.
	f2, _, _ := buildTestFramework(t)
	s2 := NewServer(f2)
	c := doJSON(t, s2, http.MethodPost, "/api/polygon", body)
	if c.Code != http.StatusOK {
		t.Fatalf("raster-path status = %d: %s", c.Code, c.Body)
	}
	var viaGeo, viaRaster polygonResponse
	if err := json.Unmarshal(a.Body.Bytes(), &viaGeo); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(c.Body.Bytes(), &viaRaster); err != nil {
		t.Fatal(err)
	}
	if viaGeo.Count != viaRaster.Count {
		t.Errorf("geoblocks count %d != raster count %d", viaGeo.Count, viaRaster.Count)
	}
}

// TestPolygonEndpointFallbacks: filters and time windows are legal on the
// endpoint but route through the raster join, not the hierarchy.
func TestPolygonEndpointFallbacks(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	f.EnableGeoBlocks(6)
	s := NewServer(f)

	body := polygonBody(testRing, "count", "")
	body["filters"] = []map[string]any{{"attr": "fare", "min": 10, "max": 30}}
	rec := doJSON(t, s, http.MethodPost, "/api/polygon", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("filtered status = %d: %s", rec.Code, rec.Body)
	}
	var got polygonResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Algorithm == "" || got.Algorithm[:9] == "geoblocks" {
		t.Errorf("filtered request served by %q; must fall back to raster", got.Algorithm)
	}
}

// TestPolygonEndpointRejects: the 400 battery.
func TestPolygonEndpointRejects(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	f.EnableGeoBlocks(6)
	s := NewServer(f)

	cases := map[string]map[string]any{
		"unknown dataset":  polygonBody(testRing, "count", ""),
		"two vertices":     polygonBody([][2]float64{{0, 0}, {1, 1}}, "count", ""),
		"zero area":        polygonBody([][2]float64{{0, 0}, {500, 500}, {250, 250}}, "count", ""),
		"bad agg":          polygonBody(testRing, "median", "fare"),
		"sum without attr": {"dataset": "taxi", "ring": testRing, "agg": "sum"},
	}
	cases["unknown dataset"]["dataset"] = "nope"
	for name, body := range cases {
		rec := doJSON(t, s, http.MethodPost, "/api/polygon", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, rec.Code, rec.Body)
		}
	}
	if rec := doJSON(t, s, http.MethodGet, "/api/polygon", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec.Code)
	}

	// Core invariant: none of those rejects poisoned anything — a valid
	// request still succeeds.
	if rec := doJSON(t, s, http.MethodPost, "/api/polygon", polygonBody(testRing, "avg", "fare")); rec.Code != http.StatusOK {
		t.Errorf("valid request after rejects: %d (%s)", rec.Code, rec.Body)
	}
}

// TestPolygonsLeaveSpanCache: ad-hoc rings that reach the raster join
// compile their one-region set without caching it — its fresh stamp is
// never named again — so the span cache's entries stay those of the
// registered layers.
func TestPolygonsLeaveSpanCache(t *testing.T) {
	s, f := testServer(t)
	spans := f.rasterJoiner().Device().SpanCache()
	before := spans.Stats().Entries
	for i := 0; i < 20; i++ {
		d := float64(10 * i)
		ring := [][2]float64{{200 + d, 200}, {800, 250 + d}, {750, 800}, {250, 750}}
		if rec := doJSON(t, s, http.MethodPost, "/api/polygon", polygonBody(ring, "count", "")); rec.Code != http.StatusOK {
			t.Fatalf("polygon %d: status %d (%s)", i, rec.Code, rec.Body)
		}
	}
	if got := spans.Stats().Entries; got != before {
		t.Errorf("span cache entries %d after 20 polygons, want %d", got, before)
	}
}
