package urbane

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/trace"
)

// doRaw issues one request with full control over body, headers, and
// context — the contract test needs pre-canceled contexts and conditional
// headers that doJSON doesn't expose.
func doRaw(t *testing.T, s *Server, ctx context.Context, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req.WithContext(ctx))
	return rec
}

// TestResponseHeaderContract drives every compute endpoint into each
// terminal status — 200, 304 (images), 400 (unknown data set, bad
// aggregate), 499, 503 (admission shed), 504 — and asserts
// the cross-cutting response contract: one status, envelope code and
// Retry-After rule per cause whatever the endpoint, the elapsed and trace
// headers stamped no matter how the request ends. This is the header audit
// for the overload paths: a 503 is still a first-class response, not a bare
// string.
func TestResponseHeaderContract(t *testing.T) {
	// One server per terminal-status mechanism, so probes can't contaminate
	// each other through the shared query cache.
	okSrv := computeServer(t)
	cancelSrv := computeServer(t)
	shedSrv := computeServer(t, WithAdmission(admit.New(0, 1, time.Millisecond)))
	slowSrv := computeServer(t, WithQueryTimeout(time.Nanosecond))
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	// checkCommon asserts what every terminal response must carry.
	checkCommon := func(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int, wantCode string) {
		t.Helper()
		if rec.Code != wantStatus {
			t.Fatalf("status = %d, want %d (body: %s)", rec.Code, wantStatus, rec.Body)
		}
		h := rec.Header()
		if ms := h.Get(elapsedHeader); ms == "" {
			t.Errorf("missing %s on %d", elapsedHeader, rec.Code)
		} else if _, err := strconv.ParseFloat(ms, 64); err != nil {
			t.Errorf("%s = %q is not a float", elapsedHeader, ms)
		}
		if h.Get(traceHeader) == "" {
			t.Errorf("missing %s on %d", traceHeader, rec.Code)
		}
		if ra := h.Get("Retry-After"); (ra != "") != (wantStatus == http.StatusServiceUnavailable) {
			t.Errorf("Retry-After = %q on %d", ra, wantStatus)
		} else if n, err := strconv.Atoi(ra); ra != "" && (err != nil || n < 1) {
			t.Errorf("503 Retry-After = %q, want integer >= 1", ra)
		}
		switch {
		case wantStatus == http.StatusNotModified:
			if rec.Body.Len() != 0 {
				t.Errorf("304 carried a %d-byte body", rec.Body.Len())
			}
		case wantStatus >= 400:
			var env struct {
				Error errorBody `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%d body is not the error envelope: %s", rec.Code, rec.Body)
			}
			if env.Error.Status != wantStatus || env.Error.Code != wantCode {
				t.Errorf("envelope = {status:%d code:%q}, want {%d %q}",
					env.Error.Status, env.Error.Code, wantStatus, wantCode)
			}
		}
	}

	for _, p := range probesFor(t, okSrv) {
		path, valid := p.req(p.dataset, "count", allDay)
		probe := func(s *Server, ctx context.Context) *httptest.ResponseRecorder {
			return doRaw(t, s, ctx, p.method, path, valid, nil)
		}
		t.Run(p.route+"/200", func(t *testing.T) {
			checkCommon(t, probe(okSrv, bg), http.StatusOK, "")
		})
		t.Run(p.route+"/unknown data set", func(t *testing.T) {
			path, body := p.req("nope", "count", allDay)
			checkCommon(t, doRaw(t, okSrv, bg, p.method, path, body, nil), http.StatusBadRequest, "bad_request")
		})
		if !p.noAgg {
			t.Run(p.route+"/bad aggregate", func(t *testing.T) {
				path, body := p.req(p.dataset, "bogus", allDay)
				checkCommon(t, doRaw(t, okSrv, bg, p.method, path, body, nil), http.StatusBadRequest, "bad_request")
			})
		}
		t.Run(p.route+"/client cancel", func(t *testing.T) {
			checkCommon(t, probe(cancelSrv, canceledCtx), trace.StatusClientClosedRequest, "client_closed_request")
		})
		t.Run(p.route+"/admission shed", func(t *testing.T) {
			checkCommon(t, probe(shedSrv, bg), http.StatusServiceUnavailable, "overloaded")
		})
		t.Run(p.route+"/expired deadline", func(t *testing.T) {
			checkCommon(t, probe(slowSrv, bg), trace.StatusGatewayTimeout, "query_timeout")
		})
		if p.image {
			t.Run(p.route+"/304", func(t *testing.T) {
				first := probe(okSrv, bg)
				etag := first.Header().Get("ETag")
				if first.Code != http.StatusOK || etag == "" {
					t.Fatalf("priming GET: status=%d etag=%q", first.Code, etag)
				}
				rec := doRaw(t, okSrv, bg, p.method, path, "", map[string]string{"If-None-Match": etag})
				checkCommon(t, rec, http.StatusNotModified, "")
			})
		}
	}
}

// TestCheapEndpointsBypassAdmission: with admission capacity 0 every
// compute sheds, yet the observability and catalog endpoints must keep
// answering — an operator diagnosing an overloaded server needs /api/stats
// the most exactly when everything else is 503.
func TestCheapEndpointsBypassAdmission(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	s := NewServer(f, WithAdmission(admit.New(0, 1, time.Millisecond)))
	for _, path := range []string{"/api/stats", "/api/cachestats", "/api/datasets", "/api/regions?layer=nbhd"} {
		rec := doJSON(t, s, http.MethodGet, path, nil)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s under full shed: status = %d, want 200 (body: %s)", path, rec.Code, rec.Body)
		}
	}
	// And a compute endpoint really is shedding on this server.
	rec := doJSON(t, s, http.MethodPost, "/api/mapview",
		map[string]string{"dataset": "taxi", "layer": "nbhd", "agg": "count"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("mapview under capacity 0: status = %d, want 503", rec.Code)
	}
}

// TestCacheHitBypassesAdmission proves the admission placement: a key
// already in the query cache keeps serving 200s even when the controller
// sheds every new compute.
func TestCacheHitBypassesAdmission(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	ctl := admit.New(1, 1, 50*time.Millisecond)
	s := NewServer(f, WithAdmission(ctl))
	body := map[string]string{"dataset": "taxi", "layer": "nbhd", "agg": "count"}
	if rec := doJSON(t, s, http.MethodPost, "/api/mapview", body); rec.Code != http.StatusOK {
		t.Fatalf("priming mapview: %d %s", rec.Code, rec.Body)
	}
	// Saturate the controller so any compute would shed...
	release, err := ctl.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// ...a repeat of the cached request still succeeds,
	rec := doJSON(t, s, http.MethodPost, "/api/mapview", body)
	if rec.Code != http.StatusOK {
		t.Errorf("cached mapview under saturation: status = %d, want 200", rec.Code)
	}
	if rec.Header().Get(cacheOutcomeHeader) != "hit" {
		t.Errorf("cache outcome = %q, want hit", rec.Header().Get(cacheOutcomeHeader))
	}
	// while a fresh compute sheds.
	fresh := map[string]string{"dataset": "311", "layer": "grid", "agg": "count"}
	if rec := doJSON(t, s, http.MethodPost, "/api/mapview", fresh); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("fresh mapview under saturation: status = %d, want 503", rec.Code)
	}
}

// TestRequestBounds: one request may ask only so much of the server. Each
// limit answers with the standard envelope — 413 for the body, 400 for a
// list or count past its cap — and a request exactly at the cap is not
// refused for its size. (Every probe names an unknown layer, so the ones
// that pass the bounds check fail fast instead of computing.)
func TestRequestBounds(t *testing.T) {
	s := computeServer(t)
	ints := func(n int) string { return strings.TrimSuffix(strings.Repeat("1,", n), ",") }
	strs := func(n int) string { return strings.TrimSuffix(strings.Repeat(`"taxi",`, n), ",") }
	metrics := func(n int) string {
		return strings.TrimSuffix(strings.Repeat(`{"name":"m","dataset":"taxi"},`, n), ",")
	}
	explore := `{"datasets":[%s],"layer":"zzz","regionIds":[%s],"start":0,"end":7200,"bins":%d}`
	cases := []struct {
		name   string
		path   string
		body   func(n int) string
		limit  int
		status int
		code   string
	}{
		{name: "body", limit: maxBodyBytes, status: http.StatusRequestEntityTooLarge, code: "payload_too_large",
			path: "/api/mapview",
			body: func(n int) string {
				const shell = `{"dataset":"taxi","layer":"zzz","attr":""}`
				return strings.Replace(shell, `""`, `"`+strings.Repeat("a", n-len(shell))+`"`, 1)
			}},
		{name: "regionIds", limit: maxRegionIDs, status: http.StatusBadRequest, code: "bad_request",
			path: "/api/explore",
			body: func(n int) string { return fmt.Sprintf(explore, `"taxi"`, ints(n), 2) }},
		{name: "datasets", limit: maxDatasets, status: http.StatusBadRequest, code: "bad_request",
			path: "/api/explore",
			body: func(n int) string { return fmt.Sprintf(explore, strs(n), "1", 2) }},
		{name: "bins", limit: maxBins, status: http.StatusBadRequest, code: "bad_request",
			path: "/api/explore",
			body: func(n int) string { return fmt.Sprintf(explore, `"taxi"`, "1", n) }},
		{name: "metrics", limit: maxMetrics, status: http.StatusBadRequest, code: "bad_request",
			path: "/api/rank",
			body: func(n int) string {
				return fmt.Sprintf(`{"layer":"zzz","targetId":1,"metrics":[%s]}`, metrics(n))
			}},
		{name: "ring", limit: maxPolygonVertices, status: http.StatusBadRequest, code: "bad_request",
			path: "/api/polygon",
			body: func(n int) string {
				ring := strings.TrimSuffix(strings.Repeat("[1,2],", n), ",")
				return fmt.Sprintf(`{"dataset":"taxi","ring":[%s]}`, ring)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			over := doRaw(t, s, bg, http.MethodPost, tc.path, tc.body(tc.limit+1), nil)
			var env struct {
				Error errorBody `json:"error"`
			}
			if err := json.Unmarshal(over.Body.Bytes(), &env); err != nil {
				t.Fatalf("body is not the error envelope: %.200s", over.Body)
			}
			if over.Code != tc.status || env.Error.Status != tc.status || env.Error.Code != tc.code ||
				!strings.Contains(env.Error.Message, strconv.Itoa(tc.limit)) {
				t.Errorf("one past the limit: status %d, envelope %+v; want %d %q naming the limit %d",
					over.Code, env.Error, tc.status, tc.code, tc.limit)
			}
			at := doRaw(t, s, bg, http.MethodPost, tc.path, tc.body(tc.limit), nil)
			if at.Code == tc.status && strings.Contains(at.Body.String(), "limit") {
				t.Errorf("exactly at the limit was refused for its size: %d %.200s", at.Code, at.Body)
			}
		})
	}
}
