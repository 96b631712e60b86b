package urbane

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/trace"
)

// viewRequest is one HTTP request for a view.
type viewRequest struct{ method, path, body string }

// selectionViews are eight views of one selection — SUM(fare) of taxi over
// nbhd, or its AVG — through /api/query, /api/mapview and the choropleth
// PNG at two widths. AVG folds onto SUM, so they share one selection entry.
func selectionViews() []viewRequest {
	var views []viewRequest
	for _, agg := range []string{"sum", "avg"} {
		views = append(views,
			viewRequest{http.MethodPost, "/api/query",
				fmt.Sprintf(`{"stmt":"SELECT %s(fare) FROM taxi, nbhd"}`, strings.ToUpper(agg))},
			viewRequest{http.MethodPost, "/api/mapview",
				fmt.Sprintf(`{"dataset":"taxi","layer":"nbhd","agg":%q,"attr":"fare"}`, agg)})
		for _, w := range []int{128, 256} {
			views = append(views, viewRequest{http.MethodGet,
				fmt.Sprintf("/api/render/choropleth.png?dataset=taxi&layer=nbhd&agg=%s&attr=fare&w=%d", agg, w), ""})
		}
	}
	return views
}

// ranJoin reports whether the request ran a raster join: the join counts
// its canvas tiles on the request trace.
func ranJoin(h http.Header) bool { return strings.Contains(h.Get(traceHeader), "tiles=") }

// TestSelectionEntryShared: the eight views of one selection run exactly
// one join between them. The first request computes the selection entry;
// the JSON views after it are hits on that entry, and each PNG misses only
// its own per-width entry and renders the shared values. Every request
// counts one outcome in /api/cachestats, and the seven that read an entry
// another view computed count as cross-view, on their trace and there. The
// bodies equal those of a server with caching off, which runs one join per
// view.
func TestSelectionEntryShared(t *testing.T) {
	s, _ := testServer(t)
	off, _ := testServer(t)
	WithCache(0)(off)

	joins := 0
	for i, v := range selectionViews() {
		rec := doRaw(t, s, bg, v.method, v.path, v.body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", v.path, rec.Code, rec.Body)
		}
		if ranJoin(rec.Header()) {
			joins++
		}
		want := "hit"
		if i == 0 || v.method == http.MethodGet {
			want = "miss"
		}
		if got := rec.Header().Get(cacheOutcomeHeader); got != want {
			t.Errorf("%s %s: outcome %q, want %q", v.path, v.body, got, want)
		}
		if cross := strings.Contains(rec.Header().Get(traceHeader), "qcache.cross_view=1"); cross != (i > 0) {
			t.Errorf("%s %s: cross-view on the trace = %v, want %v", v.path, v.body, cross, i > 0)
		}
		ref := doRaw(t, off, bg, v.method, v.path, v.body, nil)
		if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
			t.Errorf("%s %s: body differs from the uncached server's", v.path, v.body)
		}
	}
	if joins != 1 {
		t.Errorf("8 views of one selection ran %d joins, want 1", joins)
	}
	st := cacheStats(t, s)
	if st.Hits != 3 || st.Misses != 5 || st.Coalesced != 0 {
		t.Errorf("hits/misses/coalesced = %d/%d/%d, want 3/5/0: one outcome per request",
			st.Hits, st.Misses, st.Coalesced)
	}
	if st.Entries != 5 || st.CrossView != 7 {
		t.Errorf("entries = %d, crossView = %d; want 5 (one selection, four PNGs) and 7", st.Entries, st.CrossView)
	}
}

// TestSelectionEntryAppend: an append between two views of a selection
// makes the second run a fresh join — its key carries the new epoch — and
// handleAppend's sweep reclaims the old selection entry with the PNGs
// rendered from it. The fresh entry is shared again, and every body
// matches an uncached server fed the same append.
func TestSelectionEntryAppend(t *testing.T) {
	s, _ := testServer(t)
	off, _ := testServer(t)
	WithCache(0)(off)
	views := selectionViews()
	get := func(srv *Server, i int) ([]byte, http.Header) {
		t.Helper()
		rec := doRaw(t, srv, bg, views[i].method, views[i].path, views[i].body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", views[i].path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes(), rec.Header()
	}

	before, _ := get(s, 1) // mapview SUM
	get(s, 2)              // PNG w=128 from the same entry
	if st := cacheStats(t, s); st.Entries != 2 {
		t.Fatalf("entries before the append = %d, want 2", st.Entries)
	}
	body := appendBody("taxi", 40, 8*3600)
	if resp := postAppend(t, s, body); resp.Swept != 2 {
		t.Errorf("append swept %d entries, want 2 (the selection entry and its PNG)", resp.Swept)
	}
	postAppend(t, off, body)
	if st := cacheStats(t, s); st.Entries != 0 {
		t.Errorf("entries after the sweep = %d, want 0", st.Entries)
	}

	for _, i := range []int{5, 1, 0, 3} { // mapview AVG, mapview SUM, query SUM, PNG w=256
		got, h := get(s, i)
		if wantJoin := i == 5; ranJoin(h) != wantJoin {
			t.Errorf("%s %s after the append: ran a join = %v, want %v", views[i].path, views[i].body, ranJoin(h), wantJoin)
		}
		if want, _ := get(off, i); !bytes.Equal(got, want) {
			t.Errorf("%s %s: body differs from the uncached server's after the append", views[i].path, views[i].body)
		}
	}
	if after, _ := get(s, 1); bytes.Equal(after, before) {
		t.Error("the map view did not change with the appended points")
	}
}

// TestAvgIsSumOnEveryEngine pins what folding AVG onto SUM in the selection
// key rests on: on every engine of the routing lattice — cube, geoblocks
// (hybrid and declined), slabs, shards, the raster join in approximate and
// accurate mode, and segment-backed sources — a join of AVG(fare) and one
// of SUM(fare) route to the same link with the same reason and return
// bitwise-equal stats under the same Algorithm.
func TestAvgIsSumOnEveryEngine(t *testing.T) {
	ring := &data.RegionSet{Name: "ring", Regions: []data.Region{{ID: 0, Name: "ring",
		Poly: geom.Polygon{Outer: geom.Ring{{X: 200, Y: 200}, {X: 800, Y: 250}, {X: 750, Y: 800}, {X: 250, Y: 750}}}}}}
	fine := data.GridRegions("fine", geom.BBox{MaxX: 1000, MaxY: 1000}, 32, 32)
	shapes := []struct {
		name    string
		layer   string
		filters []core.Filter
		window  *core.TimeFilter
	}{
		{"canned", "nbhd", nil, nil},
		{"unfiltered polygon", "ring", nil, nil},
		{"unfiltered fine layer", "fine", nil, nil},
		{"slab-aligned window", "grid", nil, &core.TimeFilter{Start: 3600, End: 3 * 3600}},
		{"filtered ad-hoc", "nbhd", []core.Filter{{Attr: "fare", Min: 5, Max: 20}}, nil},
	}
	cube := func(t *testing.T, f *Framework) {
		if _, err := f.BuildCube("taxi", "nbhd", 3600, []string{"fare"}); err != nil {
			t.Fatal(err)
		}
	}
	geoblocks := func(_ *testing.T, f *Framework) { f.EnableGeoBlocks(6) }
	slabs := func(_ *testing.T, f *Framework) { f.EnableIncremental(3600, 0, 0) }
	shards := func(_ *testing.T, f *Framework) { f.EnableSharding(2) }
	segments := func(t *testing.T, f *Framework) { attachSegments(t, f, "taxi") }
	configs := []struct {
		name   string
		raster []core.RJOption
		setup  []func(*testing.T, *Framework)
	}{
		{"accurate raster", nil, nil},
		{"approximate raster", []core.RJOption{core.WithMode(core.Approximate)}, nil},
		{"cube", nil, []func(*testing.T, *Framework){cube}},
		{"geoblocks", nil, []func(*testing.T, *Framework){geoblocks}},
		{"slabs", nil, []func(*testing.T, *Framework){slabs}},
		{"shards", nil, []func(*testing.T, *Framework){shards}},
		{"segments", nil, []func(*testing.T, *Framework){segments}},
		{"segments + every engine", nil, []func(*testing.T, *Framework){segments, cube, geoblocks, slabs, shards}},
	}

	answered := map[string]bool{}
	for _, cfg := range configs {
		f, _, _ := buildTestFramework(t, cfg.raster...)
		for _, rs := range []*data.RegionSet{ring, fine} {
			if err := f.AddRegionSet(rs); err != nil {
				t.Fatal(err)
			}
		}
		for _, setup := range cfg.setup {
			setup(t, f)
		}
		for _, sh := range shapes {
			label := cfg.name + " / " + sh.name
			var plans [2]*query.Plan
			var results [2]*core.Result
			var declined [2]int64
			for i, agg := range []core.Agg{core.Sum, core.Avg} {
				sel := Selection{Dataset: "taxi", Layer: sh.layer, Agg: agg, Attr: "fare",
					Filters: sh.filters, Time: sh.window}
				req, err := f.resolve(sel, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				tr := trace.New("lattice")
				if plans[i], results[i], err = f.run(trace.NewContext(context.Background(), tr), req); err != nil {
					t.Fatalf("%s: %v: %v", label, agg, err)
				}
				declined[i] = tr.Counters()["geoblocks.declined"]
			}
			sum, avg := results[0], results[1]
			if plans[0].Engine != plans[1].Engine || plans[0].Reason != plans[1].Reason || declined[0] != declined[1] {
				t.Errorf("%s: SUM routed to %s (declined %d), AVG to %s (declined %d)",
					label, plans[0].Engine, declined[0], plans[1].Engine, declined[1])
			}
			if sum.Algorithm != avg.Algorithm {
				t.Errorf("%s: algorithm %q for SUM, %q for AVG", label, sum.Algorithm, avg.Algorithm)
			}
			if len(sum.Stats) != len(avg.Stats) {
				t.Fatalf("%s: %d stats for SUM, %d for AVG", label, len(sum.Stats), len(avg.Stats))
			}
			for k := range sum.Stats {
				a, b := sum.Stats[k], avg.Stats[k]
				if a.Count != b.Count || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) ||
					math.Float64bits(a.Min) != math.Float64bits(b.Min) || math.Float64bits(a.Max) != math.Float64bits(b.Max) {
					t.Errorf("%s: region %d: SUM stat %+v, AVG stat %+v", label, k, a, b)
					break
				}
			}
			link := plans[0].Engine
			if link == "geoblocks" && declined[0] > 0 {
				link = "geoblocks/declined"
			} else if link == "geoblocks" {
				link = "geoblocks/hybrid"
			}
			answered[link] = true
		}
	}
	for _, link := range []string{"cube", "geoblocks/hybrid", "geoblocks/declined", "slabs", "shards", "raster"} {
		if !answered[link] {
			t.Errorf("no shape reached %s: the lattice lost an engine", link)
		}
	}
}
