package urbane

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
)

// The fuzz server is built once per process: framework construction is the
// expensive part, and the fuzzer calls the target millions of times.
// Capacity-0 admission sheds every compute, so the fuzzer spends its budget
// on the overload path — the 503 envelope, Retry-After, and the header
// middleware — across arbitrary methods, paths, bodies, and validators.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServer(tb testing.TB) *Server {
	fuzzOnce.Do(func() {
		f, _, _ := buildTestFramework(tb)
		fuzzSrv = NewServer(f, WithAdmission(admit.New(0, 1, time.Millisecond)))
	})
	return fuzzSrv
}

// FuzzAdmitEnvelope throws arbitrary requests at a fully-shedding server
// and asserts the response contract the chaos suite depends on: the status
// is always one of the terminal set (no stray 5xx, no panic), every
// non-404 failure carries the JSON error envelope with a matching status,
// 503s carry Retry-After, and the elapsed header is stamped regardless of
// how the request died. (404s are exempt from the envelope: unregistered
// paths fall through to the frontend handler, which answers plain text.)
func FuzzAdmitEnvelope(f *testing.F) {
	f.Add("POST", "/api/mapview", `{"dataset":"taxi","layer":"nbhd","agg":"count"}`, "")
	f.Add("POST", "/api/query", `{"stmt":"SELECT COUNT(*) FROM taxi, nbhd GROUP BY id"}`, "")
	f.Add("GET", "/api/stats", "", "")
	f.Add("GET", "/api/tile/10/301/385.png?dataset=taxi", "", `W/"deadbeef-1"`)
	f.Add("GET", "/api/render/choropleth.png?dataset=taxi&layer=nbhd&agg=count", "", "*")
	f.Add("PUT", "/api/delta", "{}", "")
	f.Add("GET", "/", "", "")
	f.Add("HEAD", "/api/datasets", "", "")
	f.Add("POST", "/api/explore", `{"datasets":["taxi"],"layer":"nbhd","agg":"count","regionIds":[0],"start":0,"end":3600,"bins":2}`, "")

	allowed := map[int]bool{200: true, 304: true, 400: true, 404: true, 405: true, 413: true,
		499: true, 503: true, 504: true}

	f.Fuzz(func(t *testing.T, method, path, body, inm string) {
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		req, err := http.NewRequest(method, "http://fuzz"+path, strings.NewReader(body))
		if err != nil {
			t.Skip() // unencodable method/path — not a request the server can see
		}
		if inm != "" {
			req.Header["If-None-Match"] = []string{inm}
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		fuzzServer(t).ServeHTTP(rec, req)

		if !allowed[rec.Code] {
			t.Fatalf("%s %q -> status %d outside the terminal set (body: %.200s)",
				method, path, rec.Code, rec.Body)
		}
		if rec.Header().Get(elapsedHeader) == "" {
			t.Errorf("%s %q -> %d without %s", method, path, rec.Code, elapsedHeader)
		}
		if rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s %q -> 503 without Retry-After", method, path)
		}
		if rec.Code >= 400 && rec.Code != http.StatusNotFound {
			var env struct {
				Error errorBody `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s %q -> %d body is not the error envelope: %.200s",
					method, path, rec.Code, rec.Body)
			}
			if env.Error.Status != rec.Code || env.Error.Code == "" {
				t.Fatalf("%s %q -> HTTP %d but envelope {status:%d code:%q}",
					method, path, rec.Code, env.Error.Status, env.Error.Code)
			}
		}
	})
}
