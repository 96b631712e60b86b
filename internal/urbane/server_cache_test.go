package urbane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/qcache"
)

// cacheStats fetches /api/cachestats.
func cacheStats(t *testing.T, s *Server) cacheStatsResponse {
	t.Helper()
	rec := doJSON(t, s, http.MethodGet, "/api/cachestats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cachestats status = %d: %s", rec.Code, rec.Body)
	}
	var st cacheStatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// invalidateViaCatalog forces a whole-cache invalidation the way an engine
// toggle does: it bumps the catalog version directly. It also registers a
// throwaway point set first, which must NOT invalidate on its own — a new
// data set cannot appear in any cached response (the per-data-set epoch
// audit); the lifecycle tests keep asserting recomputed bodies are
// byte-identical, which only holds because the queried data is unchanged.
func invalidateViaCatalog(t *testing.T, f *Framework, name string) {
	t.Helper()
	ps := &data.PointSet{Name: name, X: []float64{1}, Y: []float64{2}}
	if err := f.AddPointSet(ps); err != nil {
		t.Fatal(err)
	}
	f.version.Add(1)
}

// gatedSource is a point source whose block reads wait for release; the
// first read closes entered, so a test knows a compute has routed and is
// scanning points.
type gatedSource struct {
	data.PointSource
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedSource) Read(b int, cols data.Columns) (*data.Block, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.PointSource.Read(b, cols)
}

// waitSignal is a request context that closes waiting the first time Done is
// called. Nothing on the mapview path selects on the request context before
// qcache's wait does, and a caller reaches that wait only after it has
// joined its key's flight.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (w *waitSignal) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// TestComputeAcrossToggleStaysUnderOldKey: a /api/mapview compute still in
// flight when EnableGeoBlocks swaps the routing answers every caller waiting
// on it, and its result is filed under the pre-toggle key, which no later
// request asks for: the next identical request misses and is served by the
// geoblocks engine.
func TestComputeAcrossToggleStaysUnderOldKey(t *testing.T) {
	f, taxi, _ := buildTestFramework(t)
	// An unfiltered polygon layer: the raster join serves it before the
	// toggle, the geoblocks hybrid after.
	if err := f.AddRegionSet(&data.RegionSet{Name: "ring", Regions: []data.Region{{ID: 0, Name: "ring",
		Poly: geom.Polygon{Outer: geom.Ring{{X: 200, Y: 200}, {X: 800, Y: 250}, {X: 750, Y: 800}, {X: 250, Y: 750}}}}}}); err != nil {
		t.Fatal(err)
	}
	gate := &gatedSource{PointSource: taxi.Source(), entered: make(chan struct{}), release: make(chan struct{})}
	if err := f.AttachSegments("taxi", gate); err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	const body = `{"dataset":"taxi","layer":"ring","agg":"count"}`
	mapview := func(ctx context.Context) *httptest.ResponseRecorder {
		return doRaw(t, s, ctx, http.MethodPost, "/api/mapview", body, nil)
	}

	const waiters = 2
	answers := make(chan *httptest.ResponseRecorder, 1+waiters)
	go func() { answers <- mapview(bg) }()
	<-gate.entered
	for i := 0; i < waiters; i++ {
		ctx := &waitSignal{Context: bg, waiting: make(chan struct{})}
		go func() { answers <- mapview(ctx) }()
		<-ctx.waiting
	}
	f.EnableGeoBlocks(6)
	close(gate.release)

	outcomes := map[string]int{}
	var first []byte
	for i := 0; i < 1+waiters; i++ {
		rec := <-answers
		if rec.Code != http.StatusOK {
			t.Fatalf("in-flight caller: status = %d: %s", rec.Code, rec.Body)
		}
		outcomes[rec.Header().Get(cacheOutcomeHeader)]++
		if first == nil {
			first = rec.Body.Bytes()
		} else if !bytes.Equal(first, rec.Body.Bytes()) {
			t.Error("callers of one flight got different bodies")
		}
	}
	if outcomes["miss"] != 1 || outcomes["coalesced"] != waiters {
		t.Errorf("in-flight outcomes = %v, want 1 miss and %d coalesced", outcomes, waiters)
	}

	next := mapview(bg)
	if next.Code != http.StatusOK {
		t.Fatalf("post-toggle status = %d: %s", next.Code, next.Body)
	}
	if got := next.Header().Get(cacheOutcomeHeader); got != "miss" {
		t.Errorf("post-toggle outcome = %q, want miss", got)
	}
	var ch Choropleth
	if err := json.Unmarshal(next.Body.Bytes(), &ch); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ch.Algorithm, "geoblocks-hybrid") {
		t.Errorf("post-toggle algorithm = %q, want the geoblocks hybrid", ch.Algorithm)
	}
}

// TestEquivalentRequestsShareEntry: canonicalization means filter order,
// statement formatting, and whitespace do not fragment the cache.
func TestEquivalentRequestsShareEntry(t *testing.T) {
	s, _ := testServer(t)
	a := map[string]any{
		"dataset": "taxi", "layer": "nbhd", "agg": "count",
		"filters": []map[string]any{
			{"attr": "fare", "min": 5, "max": 30},
			{"attr": "fare", "min": 0, "max": 10},
		},
	}
	b := map[string]any{
		"dataset": "taxi", "layer": "nbhd", "agg": "count",
		"filters": []map[string]any{
			{"attr": "fare", "min": 0, "max": 10},
			{"attr": "fare", "min": 5, "max": 30},
		},
	}
	r1 := doJSON(t, s, http.MethodPost, "/api/mapview", a)
	r2 := doJSON(t, s, http.MethodPost, "/api/mapview", b)
	if r1.Code != http.StatusOK || r2.Code != http.StatusOK {
		t.Fatalf("statuses = %d, %d: %s", r1.Code, r2.Code, r1.Body)
	}
	if got := r2.Header().Get("X-Urbane-Cache"); got != "hit" {
		t.Errorf("reordered filters outcome = %q, want hit", got)
	}
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Error("reordered filters served different bodies")
	}

	q1 := doJSON(t, s, http.MethodPost, "/api/query",
		map[string]string{"stmt": "SELECT COUNT(*) FROM taxi, nbhd GROUP BY id"})
	q2 := doJSON(t, s, http.MethodPost, "/api/query",
		map[string]string{"stmt": "select   count(*)   from taxi , nbhd"})
	if q1.Code != http.StatusOK || q2.Code != http.StatusOK {
		t.Fatalf("query statuses = %d, %d", q1.Code, q2.Code)
	}
	if got := q2.Header().Get("X-Urbane-Cache"); got != "hit" {
		t.Errorf("reformatted statement outcome = %q, want hit", got)
	}
}

// TestCacheDisabled: WithCache(0) bypasses everything and reports so.
func TestCacheDisabled(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	s := NewServer(f, WithCache(0))
	body := map[string]any{"dataset": "taxi", "layer": "nbhd", "agg": "count"}
	for i := 0; i < 2; i++ {
		rec := doJSON(t, s, http.MethodPost, "/api/mapview", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		if got := rec.Header().Get("X-Urbane-Cache"); got != "bypass" {
			t.Errorf("outcome = %q, want bypass", got)
		}
	}
	st := cacheStats(t, s)
	if st.Enabled {
		t.Error("cachestats should report disabled")
	}
	if rec := doJSON(t, s, http.MethodPost, "/api/cachestats", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST cachestats status = %d", rec.Code)
	}
}

// TestCacheStatsFields sanity-checks the counters the endpoint exposes.
func TestCacheStatsFields(t *testing.T) {
	s, _ := testServer(t)
	st := cacheStats(t, s)
	if !st.Enabled || st.Capacity != DefaultCacheBytes || st.TimeSnap != 1 {
		t.Errorf("defaults = %+v", st)
	}
	body := map[string]any{"dataset": "taxi", "layer": "nbhd", "agg": "count"}
	doJSON(t, s, http.MethodPost, "/api/mapview", body)
	doJSON(t, s, http.MethodPost, "/api/mapview", body)
	st = cacheStats(t, s)
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes == 0 {
		t.Errorf("after miss+hit: %+v", st)
	}
}

// randomRequest draws one request from a small domain so that randomized
// sequences repeat shapes (exercising hits) while still mixing endpoints,
// aggregates, filters, and windows.
func randomRequest(rng *rand.Rand) (method, path string, body any) {
	datasets := []string{"taxi", "311"}
	layers := []string{"nbhd", "grid"}
	windows := []map[string]int64{
		{"start": 0, "end": 4 * 3600},
		{"start": 4 * 3600, "end": 8 * 3600},
		{"start": 0, "end": 8 * 3600},
	}
	filterPool := []map[string]any{
		{"attr": "fare", "min": 0, "max": 10},
		{"attr": "fare", "min": 5, "max": 30},
		{"attr": "fare", "min": 10, "max": 40},
	}
	switch rng.Intn(8) {
	case 0: // query
		stmts := []string{
			"SELECT COUNT(*) FROM taxi, nbhd GROUP BY id",
			"SELECT AVG(fare) FROM taxi, nbhd",
			"SELECT SUM(fare) FROM taxi, grid WHERE fare BETWEEN 5 AND 30",
			"SELECT COUNT(*) FROM 311, nbhd WHERE time BETWEEN 0 AND 14400",
		}
		return http.MethodPost, "/api/query", map[string]string{"stmt": stmts[rng.Intn(len(stmts))]}
	case 1: // mapview
		b := map[string]any{
			"dataset": datasets[rng.Intn(len(datasets))],
			"layer":   layers[rng.Intn(len(layers))],
			"agg":     []string{"count", "sum", "avg"}[rng.Intn(3)],
		}
		if b["agg"] != "count" {
			b["attr"] = "fare"
		}
		if rng.Intn(2) == 0 {
			b["time"] = windows[rng.Intn(len(windows))]
		}
		n := rng.Intn(3)
		filters := make([]map[string]any, 0, n)
		for _, j := range rng.Perm(len(filterPool))[:n] {
			filters = append(filters, filterPool[j])
		}
		if len(filters) > 0 {
			b["filters"] = filters
		}
		return http.MethodPost, "/api/mapview", b
	case 2: // heatmap
		return http.MethodPost, "/api/heatmap", map[string]any{
			"dataset": datasets[rng.Intn(len(datasets))],
			"w":       []int{8, 16}[rng.Intn(2)],
		}
	case 3: // delta
		a, b := windows[rng.Intn(2)], windows[rng.Intn(2)]
		return http.MethodPost, "/api/delta", map[string]any{
			"dataset": datasets[rng.Intn(len(datasets))],
			"layer":   layers[rng.Intn(len(layers))],
			"agg":     "count",
			"a":       a, "b": b, // identical windows are a 400 on both servers
		}
	case 4: // explore
		return http.MethodPost, "/api/explore", map[string]any{
			"datasets": datasets[:1+rng.Intn(2)],
			"layer":    layers[rng.Intn(len(layers))],
			"agg":      "count",
			"start":    0, "end": 8 * 3600, "bins": []int{2, 4}[rng.Intn(2)],
		}
	case 5: // rank
		return http.MethodPost, "/api/rank", map[string]any{
			"layer": "nbhd", "targetId": 1 + rng.Intn(2),
			"metrics": []map[string]any{
				{"name": "activity", "dataset": datasets[rng.Intn(len(datasets))], "agg": "count"},
				{"name": "fare", "dataset": "taxi", "agg": "avg", "attr": "fare",
					"time": windows[rng.Intn(len(windows))]},
			},
		}
	case 6: // flows
		b := map[string]any{"dataset": "trips", "layer": layers[rng.Intn(len(layers))], "top": 1 + rng.Intn(3)}
		if rng.Intn(2) == 0 {
			b["filters"] = filterPool[:1]
		}
		return http.MethodPost, "/api/flows", b
	default: // tile
		z := rng.Intn(3)
		return http.MethodGet, fmt.Sprintf("/api/tile/%d/%d/%d.png?dataset=%s",
			z, rng.Intn(z+1), rng.Intn(z+1), datasets[rng.Intn(len(datasets))]), nil
	}
}

// TestCacheOnOffResponsesByteIdentical is the end-to-end correctness
// property: over randomized query sequences, a cached server and an
// uncached server sharing the same framework return byte-identical
// bodies and statuses for every request. Caching is an optimization,
// never a semantic change.
func TestCacheOnOffResponsesByteIdentical(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	addTrips(t, f, 1000, 57)
	cached := NewServer(f)
	uncached := NewServer(f, WithCache(0))
	for _, seed := range []int64{1, 42, 2009} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			method, path, body := randomRequest(rng)
			ra := doJSON(t, cached, method, path, body)
			rb := doJSON(t, uncached, method, path, body)
			if ra.Code != rb.Code {
				t.Fatalf("seed %d req %d %s %s: status %d (cached) vs %d (uncached)",
					seed, i, method, path, ra.Code, rb.Code)
			}
			if !bytes.Equal(ra.Body.Bytes(), rb.Body.Bytes()) {
				t.Fatalf("seed %d req %d %s %s (%v): bodies diverged\ncached:   %.200s\nuncached: %.200s",
					seed, i, method, path, body, ra.Body, rb.Body)
			}
		}
	}
	// The cached server actually cached: some of the repeats were hits.
	if st := cached.cache.Stats(); st.Hits == 0 {
		t.Error("randomized sequence produced no cache hits; domain too wide?")
	}
}

// TestConcurrentCachedRequests hammers one cached server from many
// goroutines with a mix of identical and distinct requests plus a
// mid-flight invalidation; every response must match the serial answer.
// Run under -race via the stress target.
func TestConcurrentCachedRequests(t *testing.T) {
	s, f := testServer(t)
	body := map[string]any{"dataset": "taxi", "layer": "nbhd", "agg": "count"}
	want := doJSON(t, s, http.MethodPost, "/api/mapview", body)
	if want.Code != http.StatusOK {
		t.Fatalf("status = %d", want.Code)
	}
	const workers = 16
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 10; i++ {
				if w == 3 && i == 5 {
					invalidateViaCatalog(t, f, fmt.Sprintf("mid-flight-%d", w))
				}
				rec := doJSON(t, s, http.MethodPost, "/api/mapview", body)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
					errs <- fmt.Errorf("concurrent cached response diverged")
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTileETagRevalidation: tiles carry a strong ETag derived from the
// cache key, which names the catalog version; If-None-Match revalidates to 304 without
// recomputing, and a catalog change rolls the validator.
func TestTileETagRevalidation(t *testing.T) {
	s, f := testServer(t)
	const path = "/api/tile/0/0/0.png?dataset=taxi"
	first := doJSON(t, s, http.MethodGet, path, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", first.Code, first.Body)
	}
	etag := first.Header().Get("ETag")
	if etag == "" || first.Header().Get("Cache-Control") == "" {
		t.Fatalf("missing validators: ETag=%q Cache-Control=%q",
			etag, first.Header().Get("Cache-Control"))
	}

	misses0 := s.cache.Stats().Misses
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("If-None-Match", etag)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("304 carried a %d-byte body", rec.Body.Len())
	}
	if got := s.cache.Stats().Misses; got != misses0 {
		t.Errorf("304 recomputed: misses %d -> %d", misses0, got)
	}

	// A stale validator revalidates to a full 200.
	req = httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("If-None-Match", `"deadbeef-0"`)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stale validator status = %d, want 200", rec.Code)
	}

	// Catalog change rolls the ETag, so old validators stop matching.
	invalidateViaCatalog(t, f, "etag-roll")
	req = httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-invalidation status = %d, want 200", rec.Code)
	}
	if newTag := rec.Header().Get("ETag"); newTag == etag || newTag == "" {
		t.Errorf("ETag did not roll: %q -> %q", etag, newTag)
	}
	// Same bytes either way — the data didn't change.
	if !bytes.Equal(first.Body.Bytes(), rec.Body.Bytes()) {
		t.Error("tile bytes diverged across catalog versions")
	}
}

// TestChoroplethETag: the PNG rendering path shares the same revalidation
// machinery.
func TestChoroplethETag(t *testing.T) {
	s, _ := testServer(t)
	const path = "/api/render/choropleth.png?dataset=taxi&layer=nbhd&agg=count&w=64"
	first := doJSON(t, s, http.MethodGet, path, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", first.Code, first.Body)
	}
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("If-None-Match", "W/"+etag) // weak form matches too
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", rec.Code)
	}
}

// TestCoalescedHeaderSurfaces: concurrent identical server requests share
// one compute on every view — the map view and the three that used to run
// outside the cache — and every other response reports it was coalesced or
// served from cache while the flight was hot. (The exact split is timing
// dependent; exactly-one-compute is proven deterministically in
// internal/qcache.)
func TestCoalescedHeaderSurfaces(t *testing.T) {
	for _, route := range []string{"/api/mapview", "/api/explore", "/api/rank", "/api/flows"} {
		t.Run(route, func(t *testing.T) {
			s := computeServer(t)
			var p computeProbe
			for _, p = range probesFor(t, s) {
				if p.route == route {
					break
				}
			}
			path, body := p.req(p.dataset, "count", [2]int64{0, 3 * 3600})
			const clients = 8
			outcomes := make(chan string, clients)
			for i := 0; i < clients; i++ {
				go func() {
					outcomes <- doRaw(t, s, bg, p.method, path, body, nil).Header().Get(cacheOutcomeHeader)
				}()
			}
			misses := 0
			for i := 0; i < clients; i++ {
				switch <-outcomes {
				case "miss":
					misses++
				case "hit", "coalesced":
				default:
					t.Error("unexpected outcome header")
				}
			}
			if misses != 1 {
				t.Errorf("computes = %d, want exactly 1 across concurrent identical requests", misses)
			}
			if st := s.cache.Stats(); st.Misses != 1 {
				t.Errorf("stats.misses = %d, want 1", st.Misses)
			}
		})
	}
}

// TestCacheStatsJSONShape guards the embedded-stats JSON shape the
// endpoint promises in the README. Invalidation lives in the cache keys, so
// the payload reports no generation.
func TestCacheStatsJSONShape(t *testing.T) {
	b, err := json.Marshal(cacheStatsResponse{Enabled: true, TimeSnap: 1, Stats: qcache.Stats{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"enabled", "timeSnap", "hits", "misses",
		"evictions", "coalesced", "entries", "bytes", "capacityBytes", "crossView"} {
		if !bytes.Contains(b, []byte(`"`+field+`"`)) {
			t.Errorf("cachestats JSON missing %q: %s", field, b)
		}
	}
	if bytes.Contains(b, []byte(`"generation"`)) {
		t.Errorf("cachestats JSON still reports a generation: %s", b)
	}
}
