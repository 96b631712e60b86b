package urbane

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

func TestHeatmapBasics(t *testing.T) {
	f, taxi, _ := buildTestFramework(t)
	hm, err := f.HeatmapContext(context.Background(), HeatmapRequest{Dataset: "taxi", W: 64})
	if err != nil {
		t.Fatal(err)
	}
	if hm.W != 64 || hm.H < 1 {
		t.Fatalf("dims = %dx%d", hm.W, hm.H)
	}
	if len(hm.Counts) != hm.W*hm.H {
		t.Fatalf("counts len = %d", len(hm.Counts))
	}
	// Every point lands somewhere: total equals the point count.
	if hm.Total != float64(taxi.Len()) {
		t.Errorf("total = %v, want %d", hm.Total, taxi.Len())
	}
	if hm.Max <= 0 || hm.Max > hm.Total {
		t.Errorf("max = %v", hm.Max)
	}
}

func TestHeatmapFiltersAndWeight(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	all, err := f.HeatmapContext(context.Background(), HeatmapRequest{Dataset: "taxi", W: 32})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := f.HeatmapContext(context.Background(), HeatmapRequest{Dataset: "taxi", W: 32,
		Filters: []core.Filter{{Attr: "fare", Min: 0, Max: 10}},
		Time:    &core.TimeFilter{Start: 0, End: 4 * 3600}})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Total >= all.Total || filtered.Total == 0 {
		t.Errorf("filtered total %v vs all %v", filtered.Total, all.Total)
	}
	// Weighted heatmap: total equals the sum of fares.
	weighted, err := f.HeatmapContext(context.Background(), HeatmapRequest{Dataset: "taxi", W: 32, Weight: "fare"})
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := f.PointSet("taxi")
	var want float64
	for _, v := range ps.Attr("fare") {
		want += v
	}
	if diff := weighted.Total - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("weighted total %v, want %v", weighted.Total, want)
	}
}

func TestHeatmapCrop(t *testing.T) {
	f, taxi, _ := buildTestFramework(t)
	crop := geom.BBox{MinX: 0, MinY: 0, MaxX: 500, MaxY: 500}
	hm, err := f.HeatmapContext(context.Background(), HeatmapRequest{Dataset: "taxi", W: 32, H: 32, Bounds: crop})
	if err != nil {
		t.Fatal(err)
	}
	// Only points inside the crop are rendered.
	in := 0
	for i := range taxi.X {
		if crop.Contains(geom.Pt(taxi.X[i], taxi.Y[i])) {
			in++
		}
	}
	if hm.Total != float64(in) {
		t.Errorf("cropped total %v, want %d", hm.Total, in)
	}
}

func TestHeatmapErrors(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	cases := []HeatmapRequest{
		{Dataset: "nope"},
		{Dataset: "taxi", Weight: "nope"},
		{Dataset: "taxi", Filters: []core.Filter{{Attr: "nope"}}},
		{Dataset: "taxi", W: 1 << 20},
	}
	for i, req := range cases {
		if _, err := f.HeatmapContext(context.Background(), req); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Time filter on an atemporal set.
	noT := &data.PointSet{Name: "noT", X: []float64{1}, Y: []float64{2}}
	if err := f.AddPointSet(noT); err != nil {
		t.Fatal(err)
	}
	if _, err := f.HeatmapContext(context.Background(), HeatmapRequest{Dataset: "noT",
		Time: &core.TimeFilter{Start: 0, End: 1}}); err == nil {
		t.Error("time filter without timestamps should fail")
	}
}

func TestHeatmapEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/heatmap",
		map[string]any{"dataset": "taxi", "w": 16})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var hm Heatmap
	if err := json.Unmarshal(rec.Body.Bytes(), &hm); err != nil {
		t.Fatal(err)
	}
	if hm.W != 16 || len(hm.Counts) != hm.W*hm.H {
		t.Errorf("heatmap = %dx%d with %d cells", hm.W, hm.H, len(hm.Counts))
	}
	rec = doJSON(t, s, http.MethodPost, "/api/heatmap", map[string]any{"dataset": "nope"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad dataset status = %d", rec.Code)
	}
}

func TestRegionsEndpoint(t *testing.T) {
	s, f := testServer(t)
	req := doJSON(t, s, http.MethodGet, "/api/regions?layer=nbhd", nil)
	if req.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", req.Code, req.Body)
	}
	got, err := data.ReadGeoJSON(req.Body, "nbhd")
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := f.RegionSet("nbhd")
	if got.Len() != rs.Len() {
		t.Errorf("regions = %d, want %d", got.Len(), rs.Len())
	}
	// Unknown layer.
	if rec := doJSON(t, s, http.MethodGet, "/api/regions?layer=nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown layer status = %d", rec.Code)
	}
	// Wrong method.
	if rec := doJSON(t, s, http.MethodPost, "/api/regions?layer=nbhd", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", rec.Code)
	}
}
