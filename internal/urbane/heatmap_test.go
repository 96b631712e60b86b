package urbane

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/raster"
	"repro/internal/segment"
	"repro/internal/trace"
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
		if crop.Contains(geom.Point{X: taxi.X[i], Y: taxi.Y[i]}) {
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

// attachSegments materializes the named data set into an in-memory segment
// with small blocks and a one-block cache budget, and attaches it.
func attachSegments(t *testing.T, f *Framework, name string) {
	t.Helper()
	ps, _ := f.PointSet(name)
	var buf bytes.Buffer
	if err := segment.Write(&buf, ps, segment.WithBlockSize(256)); err != nil {
		t.Fatal(err)
	}
	st, err := segment.OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), segment.WithCacheBytes(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := f.AttachSegments(name, st); err != nil {
		t.Fatal(err)
	}
}

// TestHeatmapMatchesSequentialFold pins the density grid to its definition
// — every surviving point folded into its pixel in index order — bit for
// bit, on each way the point pass can run: in RAM, in small batches, and
// block-at-a-time from an attached segment source.
func TestHeatmapMatchesSequentialFold(t *testing.T) {
	reqs := []HeatmapRequest{
		{Dataset: "taxi", W: 48},
		{Dataset: "taxi", W: 32, H: 32, Weight: "fare",
			Bounds:  geom.BBox{MinX: 100, MinY: 100, MaxX: 700, MaxY: 600},
			Filters: []core.Filter{{Attr: "fare", Min: 3, Max: 31}},
			Time:    &core.TimeFilter{Start: 3600, End: 6 * 3600}},
	}
	variants := map[string]func() *Framework{
		"in-RAM": func() *Framework { f, _, _ := buildTestFramework(t); return f },
		"batched": func() *Framework {
			f, _, _ := buildTestFramework(t, core.WithPointBatch(700))
			return f
		},
		"segments": func() *Framework {
			f, _, _ := buildTestFramework(t)
			attachSegments(t, f, "taxi")
			return f
		},
	}
	for name, build := range variants {
		f := build()
		ps, _ := f.PointSet("taxi")
		for i, req := range reqs {
			hm, err := f.HeatmapContext(context.Background(), req)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, i, err)
			}
			want := make([]float64, hm.W*hm.H)
			m := raster.NewTransform(hm.Bounds, hm.W, hm.H).PixelMap()
			for p := range ps.X {
				if req.Time != nil && (ps.T[p] < req.Time.Start || ps.T[p] >= req.Time.End) {
					continue
				}
				v := 1.0
				if req.Weight != "" {
					v = ps.Attr(req.Weight)[p]
				}
				if len(req.Filters) > 0 && !(v >= req.Filters[0].Min && v < req.Filters[0].Max) {
					continue
				}
				if px, py, ok := m.Map(ps.X[p], ps.Y[p]); ok {
					want[py*hm.W+px] += v
				}
			}
			for c := range want {
				if math.Float64bits(hm.Counts[c]) != math.Float64bits(want[c]) {
					t.Fatalf("%s/%d: cell %d = %v, want %v", name, i, c, hm.Counts[c], want[c])
				}
			}
		}
	}
}

// TestHeatmapAbortMidPass: the density pass polls per batch like every
// join, so a request that dies between batches answers 499/504 — on the
// heatmap and on the tiles built from it — and leaves no canvas live.
func TestHeatmapAbortMidPass(t *testing.T) {
	for _, tc := range []struct {
		rule   fault.Rule
		status int
	}{
		{fault.Rule{Prob: 0.3, Kind: fault.Cancel}, trace.StatusClientClosedRequest},
		{fault.Rule{Prob: 0.3, Kind: fault.Error, Err: context.DeadlineExceeded}, trace.StatusGatewayTimeout},
	} {
		for _, path := range []string{"/api/heatmap", "/api/tile/14/8192/8191.png?dataset=taxi"} {
			f, _, _ := buildTestFramework(t, core.WithPointBatch(100))
			faults := fault.New(7)
			faults.Set("core.pointpass", tc.rule)
			s := NewServer(f, WithFaults(faults))
			method, body := http.MethodGet, any(nil)
			if path == "/api/heatmap" {
				method, body = http.MethodPost, map[string]any{"dataset": "taxi", "w": 32}
			}
			rec := doJSON(t, s, method, path, body)
			if rec.Code != tc.status {
				t.Fatalf("%s: status = %d, want %d: %s", path, rec.Code, tc.status, rec.Body)
			}
			if h := rec.Header().Get(traceHeader); !strings.Contains(h, "batches=") {
				t.Errorf("%s: aborted before the first batch, not mid-pass: %q", path, h)
			}
			if live := f.rasterJoiner().Device().LiveCanvases(); live != 0 {
				t.Errorf("%s: %d canvases live after a %d", path, live, tc.status)
			}
		}
	}
}
