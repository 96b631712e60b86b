package urbane

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
)

// appendBody builds a POST /api/append body of n points for the test
// framework's schema (x, y, t, fare), with timestamps starting at t0.
func appendBody(dataset string, n int, t0 int64) map[string]any {
	x := make([]float64, n)
	y := make([]float64, n)
	ts := make([]int64, n)
	fare := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = 100 + float64(i%17)*37
		y[i] = 200 + float64(i%13)*41
		ts[i] = t0 + int64(i)
		fare[i] = float64(i%40) + 0.25
	}
	return map[string]any{
		"dataset": dataset, "x": x, "y": y, "t": ts,
		"attrs": map[string]any{"fare": fare},
	}
}

func postAppend(t *testing.T, s *Server, body map[string]any) appendResponse {
	t.Helper()
	rec := doJSON(t, s, http.MethodPost, "/api/append", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body)
	}
	var resp appendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAppendEpochIsolation is the per-data-set invalidation regression:
// appending to taxi must make every cached response that read taxi
// unreachable — its key carries taxi's epoch, so the next request misses
// and answers the grown set's bytes — and leave 311's entries warm, with
// the ETag rolling for taxi tiles only. The append itself touches no cache.
func TestAppendEpochIsolation(t *testing.T) {
	s, f := testServer(t)
	taxiReq := map[string]any{"dataset": "taxi", "layer": "nbhd", "agg": "count"}
	c311Req := map[string]any{"dataset": "311", "layer": "nbhd", "agg": "count"}

	// Warm both data sets, and grab tile validators for both.
	var taxiBefore []byte
	for _, body := range []map[string]any{taxiReq, c311Req} {
		rec := doJSON(t, s, http.MethodPost, "/api/mapview", body)
		if rec.Code != 200 {
			t.Fatalf("warmup status = %d: %s", rec.Code, rec.Body)
		}
		if body["dataset"] == "taxi" {
			taxiBefore = rec.Body.Bytes()
		}
	}
	taxiTile := doJSON(t, s, http.MethodGet, "/api/tile/0/0/0.png?dataset=taxi", nil)
	c311Tile := doJSON(t, s, http.MethodGet, "/api/tile/0/0/0.png?dataset=311", nil)
	taxiETag, c311ETag := taxiTile.Header().Get("ETag"), c311Tile.Header().Get("ETag")
	// Same for an ad-hoc polygon: a ring holding every appendBody point.
	ring := [][2]float64{{50, 150}, {750, 150}, {750, 750}, {50, 750}}
	polygonCount := func(dataset, wantCache string) int64 {
		t.Helper()
		rec := doJSON(t, s, http.MethodPost, "/api/polygon",
			map[string]any{"dataset": dataset, "ring": ring, "agg": "count"})
		if rec.Code != 200 {
			t.Fatalf("polygon %s status = %d: %s", dataset, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Urbane-Cache"); got != wantCache {
			t.Fatalf("polygon %s outcome = %q, want %s", dataset, got, wantCache)
		}
		var resp polygonResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Count
	}
	taxiInRing := polygonCount("taxi", "miss")
	polygonCount("311", "miss")
	// And for the views that read several data sets: keyed on the epoch of
	// each, an entry goes stale when any of its sets is written and only
	// then. taxi comes second so a first-set-only key would miss it.
	explore := func(datasets ...string) map[string]any {
		return map[string]any{"datasets": datasets, "layer": "nbhd", "agg": "count",
			"start": 0, "end": 8 * 3600, "bins": 2}
	}
	rank := func(datasets ...string) map[string]any {
		metrics := make([]map[string]any, len(datasets))
		for i, ds := range datasets {
			metrics[i] = map[string]any{"name": ds, "dataset": ds, "agg": "count"}
		}
		return map[string]any{"layer": "nbhd", "targetId": 1, "metrics": metrics}
	}
	outcome := func(path string, body map[string]any) string {
		t.Helper()
		rec := doJSON(t, s, http.MethodPost, path, body)
		if rec.Code != 200 {
			t.Fatalf("%s status = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Header().Get("X-Urbane-Cache")
	}
	for _, datasets := range [][]string{{"311", "taxi"}, {"311"}} {
		if a, b := outcome("/api/explore", explore(datasets...)), outcome("/api/rank", rank(datasets...)); a != "miss" || b != "miss" {
			t.Fatalf("warmup over %v: explore %q, rank %q, want miss", datasets, a, b)
		}
	}

	entries := s.cache.Stats().Entries
	epochBefore := f.Epoch("taxi")
	lenBefore, _ := f.PointSet("taxi")

	resp := postAppend(t, s, appendBody("taxi", 5, 9*3600))
	if resp.Appended != 5 || resp.Len != lenBefore.Len()+5 {
		t.Fatalf("append response = %+v", resp)
	}
	if resp.Epoch != epochBefore+1 || f.Epoch("taxi") != epochBefore+1 {
		t.Fatalf("epoch did not advance: %+v (framework %d)", resp, f.Epoch("taxi"))
	}
	if f.Epoch("311") != 1 {
		t.Fatalf("311 epoch moved to %d on a taxi append", f.Epoch("311"))
	}
	// Nothing was swept: taxi's stale entries (mapview, tile, polygon, and
	// the explore and rank that read taxi beside 311) are still resident,
	// unreachable under the new epoch.
	if st := s.cache.Stats(); st.Entries != entries {
		t.Fatalf("entries after the append = %d, want %d", st.Entries, entries)
	}

	// 311 stays warm: its next identical request is a cache hit.
	rec := doJSON(t, s, http.MethodPost, "/api/mapview", c311Req)
	if got := rec.Header().Get("X-Urbane-Cache"); got != "hit" {
		t.Fatalf("311 outcome after taxi append = %q, want hit", got)
	}
	// taxi recomputes: new epoch, new key, and the counts reflect the tail.
	rec = doJSON(t, s, http.MethodPost, "/api/mapview", taxiReq)
	if got := rec.Header().Get("X-Urbane-Cache"); got != "miss" {
		t.Fatalf("taxi outcome after append = %q, want miss", got)
	}
	if bytes.Equal(rec.Body.Bytes(), taxiBefore) {
		t.Fatal("taxi mapview after append answered the pre-append bytes")
	}

	// The repeated ring sees exactly the appended points on taxi (a stale
	// pre-append body would not) and stays warm on 311.
	if got := polygonCount("taxi", "miss"); got != taxiInRing+5 {
		t.Fatalf("taxi polygon count after append = %d, want %d", got, taxiInRing+5)
	}
	polygonCount("311", "hit")

	// Multi-set views: whatever read taxi recomputes, 311-only stays warm.
	for path, body := range map[string]func(...string) map[string]any{"/api/explore": explore, "/api/rank": rank} {
		if got := outcome(path, body("311", "taxi")); got != "miss" {
			t.Errorf("%s over 311+taxi after taxi append = %q, want miss", path, got)
		}
		if got := outcome(path, body("311")); got != "hit" {
			t.Errorf("%s over 311 alone after taxi append = %q, want hit", path, got)
		}
	}

	// taxi's tile validator rolled; 311's still revalidates to 304.
	req := httptest.NewRequest(http.MethodGet, "/api/tile/0/0/0.png?dataset=taxi", nil)
	req.Header.Set("If-None-Match", taxiETag)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("taxi tile after append = %d, want 200 (ETag must roll)", w.Code)
	}
	if newTag := w.Header().Get("ETag"); newTag == taxiETag {
		t.Fatal("taxi tile ETag did not roll on append")
	}
	req = httptest.NewRequest(http.MethodGet, "/api/tile/0/0/0.png?dataset=311", nil)
	req.Header.Set("If-None-Match", c311ETag)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNotModified {
		t.Fatalf("311 tile after taxi append = %d, want 304 (entry stays warm)", w.Code)
	}
}

// TestAppendSlabMigration is the warm-slide story end to end: with the
// slab fold enabled, an in-order append leaves every slab that ends by the
// set's last timestamp sealed and reachable; re-asking a multi-slab window
// recomputes only the slab the appended timestamps land in and folds the
// rest from the partials the first ask cached.
func TestAppendSlabMigration(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	f.EnableIncremental(3600, 0, 0)
	s := NewServer(f, WithTimeSnap(3600))
	// Cache the tail half of the day — slabs 4..7 — because appends must be
	// time-ordered, so the appended slab has to sit at the end of the range.
	body := map[string]any{
		"dataset": "taxi", "layer": "nbhd", "agg": "count",
		"time": map[string]int64{"start": 4 * 3600, "end": 8 * 3600},
	}
	if rec := doJSON(t, s, http.MethodPost, "/api/mapview", body); rec.Code != 200 {
		t.Fatalf("warmup status = %d: %s", rec.Code, rec.Body)
	}
	sj := f.Incremental()
	if got := sj.SlabsRecomputed(); got != 4 {
		t.Fatalf("warmup recomputed %d slabs, want 4", got)
	}

	// Append at the set's last timestamp, inside slab 7 for this seed; the
	// tail runs on into slab 8, past the window, which seals slab 7.
	taxi, _ := f.PointSet("taxi")
	t0 := taxi.T[taxi.Len()-1]
	if t0/3600 != 7 {
		t.Fatalf("seed drift: the set's last timestamp %d is outside slab 7", t0)
	}
	postAppend(t, s, appendBody("taxi", 3, t0))

	// Same window again: slab 7 recomputes — the warmup cached it open,
	// and an open partial never answers for a sealed slab — and slabs 4..6
	// fold from the partials the warmup cached.
	reused0, recomp0 := sj.SlabsReused(), sj.SlabsRecomputed()
	if rec := doJSON(t, s, http.MethodPost, "/api/mapview", body); rec.Code != 200 {
		t.Fatalf("post-append status = %d: %s", rec.Code, rec.Body)
	}
	if got := sj.SlabsRecomputed() - recomp0; got != 1 {
		t.Errorf("recomputed %d slabs after append, want 1", got)
	}
	if got := sj.SlabsReused() - reused0; got != 3 {
		t.Errorf("reused %d slabs after append, want 3", got)
	}
}

// TestAppendValidation: the handler rejects malformed ingest loudly.
func TestAppendValidation(t *testing.T) {
	s, _ := testServer(t)
	post := func(body map[string]any) *httptest.ResponseRecorder {
		return doJSON(t, s, http.MethodPost, "/api/append", body)
	}
	if rec := post(appendBody("nosuch", 1, 9*3600)); rec.Code != http.StatusNotFound {
		t.Errorf("unknown data set status = %d, want 404", rec.Code)
	}
	missingT := appendBody("taxi", 1, 9*3600)
	delete(missingT, "t")
	if rec := post(missingT); rec.Code != http.StatusBadRequest {
		t.Errorf("missing time column status = %d, want 400", rec.Code)
	}
	missingAttr := appendBody("taxi", 1, 9*3600)
	missingAttr["attrs"] = map[string]any{}
	if rec := post(missingAttr); rec.Code != http.StatusBadRequest {
		t.Errorf("missing attribute status = %d, want 400", rec.Code)
	}
	unknownAttr := appendBody("taxi", 1, 9*3600)
	unknownAttr["attrs"] = map[string]any{"fare": []float64{1}, "tip": []float64{1}}
	if rec := post(unknownAttr); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown attribute status = %d, want 400", rec.Code)
	}
	ragged := appendBody("taxi", 2, 9*3600)
	ragged["x"] = []float64{1}
	if rec := post(ragged); rec.Code != http.StatusBadRequest {
		t.Errorf("ragged columns status = %d, want 400", rec.Code)
	}
	if rec := doJSON(t, s, http.MethodGet, "/api/append", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", rec.Code)
	}
	// Out-of-order timestamps corrupt the binary-searched time column.
	if rec := post(appendBody("taxi", 1, 3)); rec.Code != http.StatusBadRequest {
		t.Errorf("time-regressing append status = %d, want 400", rec.Code)
	}
}

// TestAppendResponsesChange: after an append the recomputed answer must
// reflect the new points — eviction without recomputation would be a
// staleness bug, not a perf feature.
func TestAppendResponsesChange(t *testing.T) {
	s, _ := testServer(t)
	body := map[string]any{"dataset": "taxi", "layer": "nbhd", "agg": "count"}
	first := doJSON(t, s, http.MethodPost, "/api/mapview", body)
	if first.Code != 200 {
		t.Fatalf("status = %d", first.Code)
	}
	postAppend(t, s, appendBody("taxi", 64, 9*3600))
	second := doJSON(t, s, http.MethodPost, "/api/mapview", body)
	if second.Code != 200 {
		t.Fatalf("status = %d", second.Code)
	}
	if bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("response unchanged after appending 64 points inside the layer")
	}
}

// TestFrameworkAppendCOWSnapshot: a reader holding the old snapshot keeps
// its length and answers while the framework serves the grown set.
func TestFrameworkAppendCOWSnapshot(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	old, _ := f.PointSet("taxi")
	oldLen := old.Len()
	tail := &data.PointSet{
		Name: "taxi",
		X:    []float64{500}, Y: []float64{500}, T: []int64{9 * 3600},
		Attrs: []data.Column{{Name: "fare", Values: []float64{1}}},
	}
	info, err := f.Append(context.Background(), "taxi", tail)
	if err != nil {
		t.Fatal(err)
	}
	if info.Appended != 1 || info.Len != oldLen+1 {
		t.Fatalf("info = %+v", info)
	}
	if old.Len() != oldLen {
		t.Fatalf("old snapshot grew: %d -> %d", oldLen, old.Len())
	}
	grown, _ := f.PointSet("taxi")
	if grown.Len() != oldLen+1 || grown.Stamp() == old.Stamp() {
		t.Fatalf("grown set len=%d stamp=%d (old stamp %d)", grown.Len(), grown.Stamp(), old.Stamp())
	}
	// Segment-backed sets refuse appends.
	if _, err := f.Append(context.Background(), "nosuch", tail); err == nil {
		t.Error("append to unknown set succeeded")
	}
}

// TestHeatmapAfterAppendOutsideExtent: appending points outside the data
// set's extent grows the default-extent heatmap's bounds to the grown set's
// and counts the tail, on the miss after the append and on the hit after
// that.
func TestHeatmapAfterAppendOutsideExtent(t *testing.T) {
	s, f := testServer(t)
	body := map[string]any{"dataset": "taxi", "w": 64}
	heatmap := func(wantCache string) (Heatmap, []byte) {
		t.Helper()
		rec := doJSON(t, s, http.MethodPost, "/api/heatmap", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("heatmap status = %d: %s", rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Urbane-Cache"); got != wantCache {
			t.Fatalf("heatmap outcome = %q, want %s", got, wantCache)
		}
		var hm Heatmap
		if err := json.Unmarshal(rec.Body.Bytes(), &hm); err != nil {
			t.Fatal(err)
		}
		return hm, rec.Body.Bytes()
	}
	old, _ := f.PointSet("taxi")
	before, _ := heatmap("miss")
	if before.Bounds != old.Bounds() || before.Total != float64(old.Len()) {
		t.Fatalf("heatmap before the append: bounds %v total %v, want %v and %d",
			before.Bounds, before.Total, old.Bounds(), old.Len())
	}

	tail := appendBody("taxi", 3, 9*3600)
	tail["x"] = []float64{-400, 1700, 600}
	tail["y"] = []float64{300, 1250, -90}
	postAppend(t, s, tail)
	grown, _ := f.PointSet("taxi")
	fold := geom.EmptyBBox()
	for i := range grown.X {
		fold = fold.ExtendPoint(geom.Point{X: grown.X[i], Y: grown.Y[i]})
	}
	if grown.Bounds() != fold || fold == old.Bounds() {
		t.Fatalf("grown bounds %v, fold %v, old %v", grown.Bounds(), fold, old.Bounds())
	}
	cold, coldBody := heatmap("miss")
	warm, warmBody := heatmap("hit")
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("the cached heatmap differs from the computed one")
	}
	for _, hm := range []Heatmap{cold, warm} {
		if hm.Bounds != fold || hm.Total != before.Total+3 {
			t.Fatalf("heatmap after the append: bounds %v total %v, want %v and %v",
				hm.Bounds, hm.Total, fold, before.Total+3)
		}
	}
}
