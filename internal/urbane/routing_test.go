package urbane

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/trace"
)

// routingReasons is the Reason each engine of the chain routes with.
var routingReasons = map[string]string{
	"cube":      "canned query served from pre-aggregation",
	"geoblocks": "unfiltered polygon aggregation: geoblocks hierarchy, or raster join when its boundary fringe costs more",
	"slabs":     "time-windowed aggregation folded from cached slab partials",
	"raster":    "ad-hoc query routed to raster join",
}

// TestRoutingTable is the golden routing table: for every engine
// configuration × request shape it pins which link of the chain answers and
// why, through both entry points — Planner.Plan (the SQL path) and
// Framework.ExecuteContext (every view) — so the two can never again route
// the same request differently. ExecuteContext is checked by what the
// execution leaves behind: the result's Algorithm, the geoblocks.declined
// counter and the engine's spans on the request trace. The geoblocks link
// answers in one of two ways, written "geoblocks/hybrid" (interior fold +
// fringe refine) and "geoblocks/declined" (its cost rule handed the request
// to the raster join); Plan names the link either way.
func TestRoutingTable(t *testing.T) {
	ring := &data.RegionSet{Name: "ring", Regions: []data.Region{{ID: 0, Name: "ring",
		Poly: geom.Polygon{Outer: geom.Ring{{X: 200, Y: 200}, {X: 800, Y: 250}, {X: 750, Y: 800}, {X: 250, Y: 750}}}}}}
	// A fine layer is nearly all boundary fringe at the hierarchy's finest
	// level, so the geoblocks link declines it.
	fine := data.GridRegions("fine", geom.BBox{MaxX: 1000, MaxY: 1000}, 32, 32)

	requests := []struct {
		name string
		q    query.Query
	}{
		{"canned", query.Query{Agg: core.Avg, Attr: "fare", Points: "taxi", Regions: "nbhd"}},
		{"unfiltered polygon", query.Query{Agg: core.Count, Points: "taxi", Regions: "ring"}},
		{"slab-aligned window", query.Query{Agg: core.Count, Points: "taxi", Regions: "grid",
			Time: &core.TimeFilter{Start: 3600, End: 3 * 3600}}},
		{"filtered ad-hoc", query.Query{Agg: core.Count, Points: "taxi", Regions: "nbhd",
			Filters: []core.Filter{{Attr: "fare", Min: 5, Max: 20}}}},
		{"unfiltered fine layer", query.Query{Agg: core.Sum, Attr: "fare", Points: "taxi", Regions: "fine"}},
	}
	type setup func(t *testing.T, f *Framework)
	cube := func(t *testing.T, f *Framework) {
		if _, err := f.BuildCube("taxi", "nbhd", 3600, []string{"fare"}); err != nil {
			t.Fatal(err)
		}
	}
	geoblocks := func(_ *testing.T, f *Framework) { f.EnableGeoBlocks(6) }
	slabs := func(_ *testing.T, f *Framework) { f.EnableIncremental(3600, 0, 0) }
	configs := []struct {
		name  string
		setup []setup
		// want lists the engine per request, in requests order.
		want [5]string
	}{
		{"bare", nil, [5]string{"raster", "raster", "raster", "raster", "raster"}},
		{"cube", []setup{cube}, [5]string{"cube", "raster", "raster", "raster", "raster"}},
		{"geoblocks", []setup{geoblocks},
			[5]string{"geoblocks/declined", "geoblocks/hybrid", "raster", "raster", "geoblocks/declined"}},
		{"slabs", []setup{slabs}, [5]string{"raster", "raster", "slabs", "raster", "raster"}},
		{"everything", []setup{cube, geoblocks, slabs},
			[5]string{"cube", "geoblocks/hybrid", "slabs", "raster", "geoblocks/declined"}},
	}

	for _, cfg := range configs {
		f, _, _ := buildTestFramework(t)
		for _, rs := range []*data.RegionSet{ring, fine} {
			if err := f.AddRegionSet(rs); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range cfg.setup {
			s(t, f)
		}
		rasterName := f.rasterJoiner().Name()
		for i, rq := range requests {
			label := cfg.name + " / " + rq.name
			want := cfg.want[i]
			link, _, _ := strings.Cut(want, "/")

			plan, err := f.routing().Plan(rq.q, f)
			if err != nil {
				t.Fatalf("%s: Plan: %v", label, err)
			}
			if plan.Engine != link || plan.Reason != routingReasons[link] {
				t.Errorf("%s: Plan routed to %q (%q), want %q (%q)",
					label, plan.Engine, plan.Reason, link, routingReasons[link])
			}

			// The same request built the way the views build it.
			ps, _ := f.PointSet(rq.q.Points)
			rs, _ := f.RegionSet(rq.q.Regions)
			req := core.Request{Points: ps, Regions: rs, Agg: rq.q.Agg, Attr: rq.q.Attr,
				Filters: rq.q.Filters, Time: rq.q.Time}
			tr := trace.New("routing")
			res, err := f.ExecuteContext(trace.NewContext(context.Background(), tr), req)
			if err != nil {
				t.Fatalf("%s: ExecuteContext: %v", label, err)
			}
			spans := map[string]bool{}
			for _, sp := range tr.Spans() {
				spans[sp.Name] = true
			}
			declined := tr.Counters()["geoblocks.declined"]
			var got string
			switch {
			case res.Algorithm == "pre-aggregation-cube":
				got = "cube"
			case strings.HasPrefix(res.Algorithm, "geoblocks-hybrid") && spans["geoblocks.plan"] && declined == 0:
				got = "geoblocks/hybrid"
			case declined == 1 && res.Algorithm == rasterName && !spans["geoblocks.plan"]:
				got = "geoblocks/declined"
			case declined != 0:
				got = "declined, then ran elsewhere"
			case spans["tcache.fold"]:
				got = "slabs"
			case res.Algorithm == rasterName:
				got = "raster"
			}
			if got != want {
				t.Errorf("%s: ExecuteContext ran on %q (algorithm %q, declined %d, spans %v), want %q",
					label, got, res.Algorithm, declined, spans, want)
			}
		}
	}
}

// TestRerouteWhileExecuting races ExecuteContext against the toggles that
// rewrite the routing chain. The planner is swapped copy-on-write under
// f.mu, so under -race this stays silent; editing the shared planner in
// place (as EnableGeoBlocks and BuildCube once did) is a reported race on
// its GeoBlocks and Cubes fields.
func TestRerouteWhileExecuting(t *testing.T) {
	f, taxi, nbhd := buildTestFramework(t)
	req := core.Request{Points: taxi, Regions: nbhd, Agg: core.Count,
		Filters: []core.Filter{{Attr: "fare", Min: 5, Max: 20}}}
	done := make(chan struct{})
	var executed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := f.ExecuteContext(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
				executed.Add(1)
			}
		}()
	}
	// Keep toggling until the queries have demonstrably overlapped the
	// toggles, rather than for a fixed count that may finish before the
	// first query routes.
	for executed.Load() < 20 && !t.Failed() {
		f.EnableGeoBlocks(4)
		if _, err := f.BuildCube("taxi", "nbhd", 3600, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestEngineToggleKeepsDerivedStructures: a version bump (EnableIncremental)
// invalidates cached responses, which name their routing, but not the
// structures keyed by data identity — a built hierarchy is a function of its
// point-set stamp and a compiled span list of its region-set stamp and
// transform, and the toggle changes neither.
func TestEngineToggleKeepsDerivedStructures(t *testing.T) {
	f, taxi, nbhd := buildTestFramework(t)
	store := f.EnableGeoBlocks(6).Store()
	ctx := context.Background()
	polygon := core.Request{Points: taxi, Regions: nbhd, Agg: core.Count}
	adhoc := core.Request{Points: taxi, Regions: nbhd, Agg: core.Count,
		Filters: []core.Filter{{Attr: "fare", Min: 5, Max: 20}}}
	for _, req := range []core.Request{polygon, adhoc} {
		if _, err := f.ExecuteContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	spans := f.rasterJoiner().Device().SpanCache()
	builds, compiles := store.Stats().Misses, spans.Stats().Misses
	if builds != 1 || compiles == 0 {
		t.Fatalf("warm-up built %d hierarchies and compiled %d span lists, want 1 and > 0", builds, compiles)
	}

	v := f.Version()
	f.EnableIncremental(3600, 0, 0)
	if f.Version() == v {
		t.Fatal("EnableIncremental did not bump the catalog version")
	}
	for _, req := range []core.Request{polygon, adhoc} {
		if _, err := f.ExecuteContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.Stats().Misses; got != builds {
		t.Errorf("hierarchy builds = %d after the toggle, want %d (no rebuild)", got, builds)
	}
	if got := spans.Stats().Misses; got != compiles {
		t.Errorf("span compiles = %d after the toggle, want %d (no recompile)", got, compiles)
	}
}
