package urbane

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// computeProbe builds requests against one compute route. req renders the
// request for a data set, an aggregate and a time filter; a route that has
// no aggregate (noAgg) or no time filter (noWindow) ignores that argument.
type computeProbe struct {
	route    string // key in Server.computeRoutes
	method   string
	dataset  string // a data set the route accepts
	noAgg    bool
	noWindow bool
	image    bool
	req      func(ds, agg string, win [2]int64) (path, body string)
}

// allDay covers every timestamp of the test catalog.
var allDay = [2]int64{0, 8 * 3600}

var bg = context.Background()

// computeProbes has one entry per compute route; probesFor fails the test
// when a route is registered without one, so every table test over the
// probes covers every compute endpoint by construction.
var computeProbes = []computeProbe{
	{route: "/api/query", method: http.MethodPost, dataset: "taxi",
		req: func(ds, agg string, win [2]int64) (string, string) {
			sel := "COUNT(*)"
			if agg != "count" {
				sel = strings.ToUpper(agg) + "(fare)"
			}
			return "/api/query", fmt.Sprintf(`{"stmt":"SELECT %s FROM %s, nbhd WHERE time BETWEEN %d AND %d"}`,
				sel, ds, win[0], win[1])
		}},
	{route: "/api/mapview", method: http.MethodPost, dataset: "taxi",
		req: func(ds, agg string, win [2]int64) (string, string) {
			return "/api/mapview", fmt.Sprintf(`{"dataset":%q,"layer":"nbhd","agg":%q,"time":{"start":%d,"end":%d}}`,
				ds, agg, win[0], win[1])
		}},
	{route: "/api/explore", method: http.MethodPost, dataset: "taxi", noWindow: true,
		req: func(ds, agg string, _ [2]int64) (string, string) {
			return "/api/explore", fmt.Sprintf(`{"datasets":[%q],"layer":"nbhd","agg":%q,"regionIds":[1,2],"start":0,"end":7200,"bins":4}`,
				ds, agg)
		}},
	{route: "/api/rank", method: http.MethodPost, dataset: "taxi",
		req: func(ds, agg string, win [2]int64) (string, string) {
			return "/api/rank", fmt.Sprintf(`{"layer":"nbhd","targetId":1,"metrics":[{"name":"m","dataset":%q,"agg":%q,"time":{"start":%d,"end":%d}}]}`,
				ds, agg, win[0], win[1])
		}},
	{route: "/api/heatmap", method: http.MethodPost, dataset: "taxi",
		req: func(ds, agg string, win [2]int64) (string, string) {
			return "/api/heatmap", fmt.Sprintf(`{"dataset":%q,"agg":%q,"w":32,"h":32,"time":{"start":%d,"end":%d}}`,
				ds, agg, win[0], win[1])
		}},
	{route: "/api/flows", method: http.MethodPost, dataset: "trips",
		req: func(ds, agg string, win [2]int64) (string, string) {
			return "/api/flows", fmt.Sprintf(`{"dataset":%q,"layer":"nbhd","agg":%q,"top":3,"time":{"start":%d,"end":%d}}`,
				ds, agg, win[0], win[1])
		}},
	{route: "/api/delta", method: http.MethodPost, dataset: "taxi",
		req: func(ds, agg string, win [2]int64) (string, string) {
			return "/api/delta", fmt.Sprintf(`{"dataset":%q,"layer":"nbhd","agg":%q,"a":{"start":%d,"end":%d},"b":{"start":36000,"end":72000}}`,
				ds, agg, win[0], win[1])
		}},
	{route: "/api/polygon", method: http.MethodPost, dataset: "taxi",
		req: func(ds, agg string, win [2]int64) (string, string) {
			return "/api/polygon", fmt.Sprintf(`{"dataset":%q,"agg":%q,"ring":[[100,100],[600,100],[600,600],[100,600]],"time":{"start":%d,"end":%d}}`,
				ds, agg, win[0], win[1])
		}},
	{route: "/api/render/choropleth.png", method: http.MethodGet, dataset: "taxi", noWindow: true, image: true,
		req: func(ds, agg string, _ [2]int64) (string, string) {
			return fmt.Sprintf("/api/render/choropleth.png?dataset=%s&layer=nbhd&agg=%s&w=64", ds, agg), ""
		}},
	{route: "/api/tile/", method: http.MethodGet, dataset: "taxi", noAgg: true, noWindow: true, image: true,
		req: func(ds, _ string, _ [2]int64) (string, string) {
			return fmt.Sprintf("/api/tile/0/0/0.png?dataset=%s", ds), ""
		}},
}

// probesFor returns the probe table after checking it against the server's
// compute routes, one to one.
func probesFor(t *testing.T, s *Server) []computeProbe {
	t.Helper()
	routes := s.computeRoutes()
	seen := map[string]bool{}
	for _, p := range computeProbes {
		if _, ok := routes[p.route]; !ok {
			t.Fatalf("probe for %s: no such compute route", p.route)
		}
		seen[p.route] = true
	}
	for route := range routes {
		if !seen[route] {
			t.Fatalf("compute route %s has no entry in computeProbes", route)
		}
	}
	return computeProbes
}

// computeServer is a test server whose catalog satisfies every probe: the
// standard test framework plus a trip data set for the flow view.
func computeServer(t *testing.T, opts ...ServerOption) *Server {
	t.Helper()
	f, _, _ := buildTestFramework(t)
	addTrips(t, f, 1000, 57)
	return NewServer(f, opts...)
}

// TestEveryComputeEndpointIsCached is the guard against a handler growing
// its own execution path again. Every compute route goes through the
// miss -> hit -> invalidate -> miss lifecycle: the second identical request
// serves the same bytes from the query cache and bumps the hit counter; a
// catalog-wide invalidation forces a recompute, which matches because the
// queried data did not change; and no body carries wall-clock timing.
func TestEveryComputeEndpointIsCached(t *testing.T) {
	for i, p := range probesFor(t, computeServer(t)) {
		t.Run(p.route, func(t *testing.T) {
			s := computeServer(t)
			path, body := p.req(p.dataset, "count", allDay)
			do := func(wantOutcome string) []byte {
				t.Helper()
				rec := doRaw(t, s, bg, p.method, path, body, nil)
				if rec.Code != http.StatusOK {
					t.Fatalf("status = %d: %s", rec.Code, rec.Body)
				}
				if got := rec.Header().Get(cacheOutcomeHeader); got != wantOutcome {
					t.Fatalf("outcome = %q, want %q: does the handler go through serveCached?", got, wantOutcome)
				}
				return rec.Body.Bytes()
			}
			before := cacheStats(t, s)
			first := do("miss")
			if !bytes.Equal(first, do("hit")) {
				t.Fatal("cached body differs from computed body")
			}
			if !p.image && bytes.Contains(first, []byte(`"elapsedNs":`)) &&
				!bytes.Contains(first, []byte(`"elapsedNs":0}`)) {
				t.Errorf("body carries wall-clock timing: %.120s", first)
			}
			mid := cacheStats(t, s)
			if mid.Hits != before.Hits+1 || mid.Misses != before.Misses+1 {
				t.Errorf("hits/misses = %d/%d, want %d/%d", mid.Hits, mid.Misses, before.Hits+1, before.Misses+1)
			}

			invalidateViaCatalog(t, s.f, fmt.Sprintf("scratch-%d", i))
			if !bytes.Equal(first, do("miss")) {
				t.Fatal("recomputed body diverged after invalidation")
			}
			if after := cacheStats(t, s); after.Generation <= mid.Generation {
				t.Errorf("generation did not advance: %d -> %d", mid.Generation, after.Generation)
			}
		})
	}
}

// TestTimeSnapOnEveryTimeFilteredEndpoint: WithTimeSnap promises "every
// time filter" — a ragged window and its snapped form must be one cache
// entry on every route that takes one. Each route gets its own server:
// /api/query and /api/mapview share selection entries, so on one server the
// second of them would find the next bucket already computed.
func TestTimeSnapOnEveryTimeFilteredEndpoint(t *testing.T) {
	for _, p := range probesFor(t, computeServer(t)) {
		if p.noWindow {
			continue
		}
		t.Run(p.route, func(t *testing.T) {
			s := computeServer(t, WithTimeSnap(3600))
			path, ragged := p.req(p.dataset, "count", [2]int64{13, 3590})
			_, snapped := p.req(p.dataset, "count", [2]int64{0, 3600})
			first := doRaw(t, s, bg, p.method, path, ragged, nil)
			second := doRaw(t, s, bg, p.method, path, snapped, nil)
			if first.Code != http.StatusOK || second.Code != http.StatusOK {
				t.Fatalf("statuses = %d, %d: %s", first.Code, second.Code, first.Body)
			}
			if got := second.Header().Get(cacheOutcomeHeader); got != "hit" {
				t.Errorf("snapped form outcome = %q, want hit", got)
			}
			if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
				t.Error("ragged and snapped windows served different bodies")
			}
			_, next := p.req(p.dataset, "count", [2]int64{3601, 7200})
			if got := doRaw(t, s, bg, p.method, path, next, nil).Header().Get(cacheOutcomeHeader); got != "miss" {
				t.Errorf("next bucket outcome = %q, want miss", got)
			}
		})
	}
}
