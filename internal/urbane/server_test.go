package urbane

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
)

func testServer(t *testing.T) (*Server, *Framework) {
	t.Helper()
	f, _, _ := buildTestFramework(t)
	return NewServer(f), f
}

func doJSON(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestDatasetsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodGet, "/api/datasets", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var got map[string][]string
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got["points"]) != 2 || len(got["layers"]) != 2 {
		t.Errorf("datasets = %v", got)
	}
	// Wrong method.
	rec = doJSON(t, s, http.MethodPost, "/api/datasets", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/datasets status = %d", rec.Code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/query",
		map[string]string{"stmt": "SELECT COUNT(*) FROM taxi, nbhd GROUP BY id"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var got queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 12 || got.Algorithm == "" {
		t.Errorf("response = %+v", got)
	}
	// Timing travels in a header so cached bodies stay deterministic.
	if rec.Header().Get("X-Urbane-Elapsed-Ms") == "" {
		t.Error("missing elapsed header")
	}
	// Parse errors surface as 400 with a message.
	rec = doJSON(t, s, http.MethodPost, "/api/query", map[string]string{"stmt": "SELECT nonsense"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad stmt status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Errorf("bad stmt body = %s", rec.Body)
	}
	// Malformed JSON body.
	req := httptest.NewRequest(http.MethodPost, "/api/query", strings.NewReader("{"))
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", rec2.Code)
	}
	// GET not allowed.
	rec = doJSON(t, s, http.MethodGet, "/api/query", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec.Code)
	}
}

func TestMapViewEndpoint(t *testing.T) {
	s, _ := testServer(t)
	body := map[string]any{
		"dataset": "taxi", "layer": "nbhd", "agg": "avg", "attr": "fare",
		"filters": []map[string]any{{"attr": "fare", "min": 5, "max": 30}},
		"time":    map[string]int64{"start": 0, "end": 4 * 3600},
	}
	rec := doJSON(t, s, http.MethodPost, "/api/mapview", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var ch Choropleth
	if err := json.Unmarshal(rec.Body.Bytes(), &ch); err != nil {
		t.Fatal(err)
	}
	if len(ch.Values) != 12 {
		t.Errorf("values = %d", len(ch.Values))
	}
	// Unknown aggregate.
	body["agg"] = "median"
	rec = doJSON(t, s, http.MethodPost, "/api/mapview", body)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown agg status = %d", rec.Code)
	}
	// Unknown dataset.
	body["agg"] = "count"
	body["dataset"] = "nope"
	rec = doJSON(t, s, http.MethodPost, "/api/mapview", body)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown dataset status = %d", rec.Code)
	}
}

func TestExploreEndpoint(t *testing.T) {
	s, _ := testServer(t)
	body := map[string]any{
		"datasets": []string{"taxi", "311"},
		"layer":    "nbhd",
		"agg":      "count",
		"start":    0, "end": 8 * 3600, "bins": 4,
		"regionIds": []int{0, 1},
	}
	rec := doJSON(t, s, http.MethodPost, "/api/explore", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var ex Exploration
	if err := json.Unmarshal(rec.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Series) != 4 || len(ex.BinStarts) != 4 {
		t.Errorf("series=%d bins=%d", len(ex.Series), len(ex.BinStarts))
	}
	// Bad request.
	body["bins"] = 0
	rec = doJSON(t, s, http.MethodPost, "/api/explore", body)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("zero bins status = %d", rec.Code)
	}
	// More bins than seconds: the later bins would lie past the range.
	body["start"], body["end"], body["bins"] = 10, 13, 5
	rec = doJSON(t, s, http.MethodPost, "/api/explore", body)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("5 bins over [10,13) status = %d: %s", rec.Code, rec.Body)
	}
}

// TestExploreSeriesErrorIsReturned: a series that fails at the core.join
// site answers the error envelope. The fault fires on the first pass only,
// so a per-bin rerun after the failure would have answered 200.
func TestExploreSeriesErrorIsReturned(t *testing.T) {
	const bins = 4
	var faults *fault.Registry
	for seed := int64(1); faults == nil; seed++ {
		reg := fault.New(seed)
		reg.Set("core.join", fault.Rule{Prob: 0.5, Kind: fault.Error})
		if sched := reg.Schedule("core.join", 1+bins); sched[0] && !slices.Contains(sched[1:], true) {
			faults = reg
		}
	}
	f, _, _ := buildTestFramework(t)
	rec := doJSON(t, NewServer(f, WithFaults(faults)), http.MethodPost, "/api/explore", map[string]any{
		"datasets": []string{"taxi"}, "layer": "nbhd", "agg": "count",
		"start": 0, "end": 8 * 3600, "bins": bins, "regionIds": []int{0, 1},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want %d: %s", rec.Code, http.StatusBadRequest, rec.Body)
	}
	var env struct {
		Error errorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "bad_request" || !strings.Contains(env.Error.Message, fault.ErrInjected.Error()) {
		t.Fatalf("envelope %+v, want the injected error", env.Error)
	}
	if calls := faults.Counts()["core.join"][0]; calls != 1 {
		t.Fatalf("core.join passed %d times, want 1", calls)
	}
}

func TestRankEndpoint(t *testing.T) {
	s, _ := testServer(t)
	body := map[string]any{
		"layer":    "nbhd",
		"targetId": 2,
		"metrics": []map[string]any{
			{"name": "activity", "dataset": "taxi", "agg": "count"},
			{"name": "fare", "dataset": "taxi", "agg": "avg", "attr": "fare"},
		},
	}
	rec := doJSON(t, s, http.MethodPost, "/api/rank", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var scores []RegionScore
	if err := json.Unmarshal(rec.Body.Bytes(), &scores); err != nil {
		t.Fatal(err)
	}
	if len(scores) != 11 {
		t.Errorf("scores = %d, want 11", len(scores))
	}
	// MIN and MAX rank like any aggregate: by |v_k - v_target| over the
	// map view's values for the same selection.
	for _, agg := range []string{"min", "max"} {
		sel := map[string]any{"dataset": "taxi", "layer": "nbhd", "agg": agg, "attr": "fare"}
		rec := doJSON(t, s, http.MethodPost, "/api/mapview", sel)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s mapview status = %d: %s", agg, rec.Code, rec.Body)
		}
		var view Choropleth
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		values := map[int]float64{}
		for _, v := range view.Values {
			values[v.ID] = v.Value
		}
		rec = doJSON(t, s, http.MethodPost, "/api/rank", map[string]any{
			"layer": "nbhd", "targetId": 2,
			"metrics": []map[string]any{{"name": agg, "dataset": "taxi", "agg": agg, "attr": "fare"}},
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s rank status = %d: %s", agg, rec.Code, rec.Body)
		}
		var ranked []RegionScore
		if err := json.Unmarshal(rec.Body.Bytes(), &ranked); err != nil {
			t.Fatal(err)
		}
		if len(ranked) != len(values)-1 {
			t.Fatalf("%s: %d scores, want %d", agg, len(ranked), len(values)-1)
		}
		target := values[2]
		for i := 1; i < len(ranked); i++ {
			prev := math.Abs(values[ranked[i-1].ID] - target)
			if cur := math.Abs(values[ranked[i].ID] - target); cur < prev {
				t.Fatalf("%s: rank %d (region %d, |dv| %v) after |dv| %v", agg, i, ranked[i].ID, cur, prev)
			}
		}
	}
	// Bad metric agg.
	body["metrics"] = []map[string]any{{"name": "x", "dataset": "taxi", "agg": "mode"}}
	rec = doJSON(t, s, http.MethodPost, "/api/rank", body)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad agg status = %d", rec.Code)
	}
	// Unknown target.
	body["metrics"] = []map[string]any{{"name": "x", "dataset": "taxi", "agg": "count"}}
	body["targetId"] = 999
	rec = doJSON(t, s, http.MethodPost, "/api/rank", body)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown target status = %d", rec.Code)
	}
}

func TestIndexPage(t *testing.T) {
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodGet, "/", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"Urbane", "/api/mapview", "/api/regions"} {
		if !strings.Contains(body, want) {
			t.Errorf("index page missing %q", want)
		}
	}
	// Unknown paths 404 rather than serving the index — and the 404 is
	// the JSON error envelope, not http.NotFound's text/plain (regression:
	// handleIndex once bypassed writeError for its catch-all).
	rec = doJSON(t, s, http.MethodGet, "/nope", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("unknown path content type = %q, want JSON envelope", ct)
	}
	var envelope struct {
		Error struct {
			Status  int    `json:"status"`
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("unknown path body is not the JSON envelope: %v\n%s", err, rec.Body.String())
	}
	if envelope.Error.Status != http.StatusNotFound || envelope.Error.Code != "not_found" {
		t.Errorf("envelope = %+v, want status 404 code not_found", envelope.Error)
	}
	if !strings.Contains(envelope.Error.Message, "/nope") {
		t.Errorf("envelope message %q does not name the missing path", envelope.Error.Message)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/mapview",
		map[string]any{"dataset": "taxi", "layer": "nbhd", "bogus": 1})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field status = %d", rec.Code)
	}
}
