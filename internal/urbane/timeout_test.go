package urbane

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestQueryTimeoutReturns504: with a deadline the join cannot meet, the
// endpoint answers 504 with the query_timeout error code, still carries the
// elapsed and trace headers, counts the timeout in /api/stats, and leaves
// no render resources live — eventually: the abandoned compute holds its
// canvas until its next ctx poll (see qcache.DoContext), so the leak check
// polls with a bounded deadline.
func TestQueryTimeoutReturns504(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	s := NewServer(f, WithQueryTimeout(time.Nanosecond))

	rec := doJSON(t, s, http.MethodPost, "/api/mapview", map[string]any{
		"dataset": "taxi", "layer": "nbhd", "agg": "count",
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "query_timeout") {
		t.Errorf("body lacks query_timeout code: %s", rec.Body)
	}
	if rec.Header().Get("X-Urbane-Elapsed-Ms") == "" {
		t.Error("504 response missing elapsed header")
	}
	if h := rec.Header().Get("X-Urbane-Trace"); !strings.Contains(h, "total=") {
		t.Errorf("504 response missing trace header, got %q", h)
	}

	var stats *httptest.ResponseRecorder
	var body statsResponse
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		stats = doJSON(t, s, http.MethodGet, "/api/stats", nil)
		if stats.Code != http.StatusOK {
			t.Fatalf("/api/stats status = %d", stats.Code)
		}
		body = statsResponse{}
		if err := json.Unmarshal(stats.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if (body.LiveCanvases == 0 && body.LiveTextures == 0) || time.Now().After(deadline) {
			break
		}
	}
	if body.LiveCanvases != 0 || body.LiveTextures != 0 {
		t.Errorf("render resources still live 2s after timeout: canvases=%d textures=%d",
			body.LiveCanvases, body.LiveTextures)
	}
	found := false
	for _, ep := range body.Endpoints {
		if ep.Name == "/api/mapview" {
			found = true
			if ep.Timeouts == 0 {
				t.Errorf("/api/mapview timeouts = 0, want > 0: %+v", ep)
			}
			if ep.InFlight != 0 {
				t.Errorf("/api/mapview inFlight = %d, want 0", ep.InFlight)
			}
		}
	}
	if !found {
		t.Errorf("/api/mapview missing from stats: %s", stats.Body)
	}

	// The same server must still answer once the handler is given room: the
	// timeout applies per request, and the aborted join freed its pool.
	s.timeout = 30 * time.Second
	rec = doJSON(t, s, http.MethodPost, "/api/mapview", map[string]any{
		"dataset": "taxi", "layer": "nbhd", "agg": "count",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-timeout request status = %d: %s", rec.Code, rec.Body)
	}
}

// TestTraceHeaderStages: a successful query response carries the per-stage
// trace (parse, plan, execute) in X-Urbane-Trace.
func TestTraceHeaderStages(t *testing.T) {
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/query",
		map[string]string{"stmt": "SELECT COUNT(*) FROM taxi, nbhd GROUP BY id"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	h := rec.Header().Get("X-Urbane-Trace")
	for _, stage := range []string{"parse=", "plan=", "execute=", "total="} {
		if !strings.Contains(h, stage) {
			t.Errorf("trace header lacks %q: %q", stage, h)
		}
	}
}

// TestMapviewTraceStageSpans: a cold accurate /api/mapview traces the
// raster join's four stage spans, each once, and core.refine carries the
// boundary observation and edge test counters.
func TestMapviewTraceStageSpans(t *testing.T) {
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/mapview",
		map[string]any{"dataset": "taxi", "layer": "nbhd", "agg": "count"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Urbane-Cache"); got != "miss" {
		t.Fatalf("X-Urbane-Cache = %q, want a cold request", got)
	}
	h := rec.Header().Get("X-Urbane-Trace")
	for _, span := range []string{"core.pass1", "core.accumulate", "core.collect", "core.refine"} {
		if n := strings.Count(h, span+"="); n != 1 {
			t.Errorf("trace header holds %d %s spans, want 1: %q", n, span, h)
		}
	}
	if !regexp.MustCompile(`core\.refine=\d+\.\d\d\(boundary_obs=[1-9]\d*,refine_edge_tests=\d+\)`).MatchString(h) {
		t.Errorf("core.refine lacks its counters: %q", h)
	}
}

// TestErrorEnvelope: every failure uses the unified envelope
// {"error":{"status","code","message"}}.
func TestErrorEnvelope(t *testing.T) {
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/query", map[string]string{"stmt": "SELECT nonsense"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	var envelope struct {
		Error errorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("decoding envelope: %v (%s)", err, rec.Body)
	}
	if envelope.Error.Status != http.StatusBadRequest ||
		envelope.Error.Code != "bad_request" || envelope.Error.Message == "" {
		t.Errorf("envelope = %+v", envelope.Error)
	}
}
