package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/fsum"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/urbane"
	"repro/internal/workload"
)

// subsample keeps every k-th point to hit n while preserving the spatial and
// temporal distribution (and time order) of the full set.
func subsample(ps *data.PointSet, n int) *data.PointSet {
	if n >= ps.Len() {
		return ps
	}
	idx := make([]int, 0, n)
	step := float64(ps.Len()) / float64(n)
	for i := 0; i < n; i++ {
		idx = append(idx, int(float64(i)*step))
	}
	out := ps.Select(idx)
	out.Name = ps.Name
	return out
}

// absCountErr sums per-region |count - want|.
func absCountErr(got, want *core.Result) int64 {
	var e int64
	for k := range got.Stats {
		d := got.Stats[k].Count - want.Stats[k].Count
		if d < 0 {
			d = -d
		}
		e += d
	}
	return e
}

// relErr is total absolute error over total true count.
func relErr(got, want *core.Result) float64 {
	t := want.TotalCount()
	if t == 0 {
		return 0
	}
	return float64(absCountErr(got, want)) / float64(t)
}

// ---------------------------------------------------------------- E1

// runE1 reproduces the paper's Figure 1 interaction: the map view showing
// taxi pickups in January 2009 aggregated over NYC's neighborhoods, then
// the four weekly time-slider refinements a demo visitor performs.
func runE1(scale float64) {
	n := scaled(1_000_000, scale, 50_000)
	fmt.Printf("workload: %d taxi points, %d neighborhoods\n", n, workload.NeighborhoodCount)
	scene := workload.NYC(n, 2009)

	f := urbane.New(core.NewRasterJoin(core.WithResolution(1024)))
	must(f.AddPointSet(scene.Taxi))
	must(f.AddRegionSet(scene.Neighborhoods))

	t := newTable("interaction", "latency", "algorithm", "total pickups")
	windows := []struct {
		name string
		tf   *core.TimeFilter
	}{{"January 2009 (full month)", workload.Jan2009()},
		{"week 1", workload.JanWeek(0)}, {"week 2", workload.JanWeek(1)},
		{"week 3", workload.JanWeek(2)}, {"week 4", workload.JanWeek(3)}}
	var last *urbane.Choropleth
	for _, w := range windows {
		var ch *urbane.Choropleth
		lat := timeMedian(3, func() {
			var err error
			ch, err = f.MapViewContext(context.Background(), urbane.Selection{
				Dataset: "taxi", Layer: "neighborhoods",
				Agg: core.Count, Time: w.tf,
			})
			must(err)
		})
		var total fsum.Kahan
		for _, v := range ch.Values {
			total.Add(v.Value)
		}
		t.row(w.name, lat, ch.Algorithm, int64(total.Sum()))
		last = ch
	}
	t.flush()

	// The choropleth itself: top neighborhoods of the final view.
	vals := append([]urbane.RegionValue(nil), last.Values...)
	sort.Slice(vals, func(i, j int) bool { return vals[i].Value > vals[j].Value })
	fmt.Println("\nbusiest neighborhoods (week 4):")
	t2 := newTable("rank", "neighborhood", "pickups")
	for i := 0; i < 5 && i < len(vals); i++ {
		t2.row(i+1, vals[i].Name, int64(vals[i].Value))
	}
	t2.flush()
}

// ---------------------------------------------------------------- E2

// runE2 illustrates the raster pipeline itself (the paper's Raster Join
// figure): how approximation error falls with canvas resolution while the
// accurate hybrid stays exact at every resolution.
func runE2(scale float64) {
	n := scaled(100_000, scale, 20_000)
	scene := workload.NYC(n, 11)
	regions := data.VoronoiRegions("nbhd16", scene.Bounds, 16, 12,
		data.VoronoiOptions{JitterFrac: 0.12})
	req := core.Request{Points: scene.Taxi, Regions: regions, Agg: core.Count}
	exact, err := (&index.BruteForce{}).Join(req)
	must(err)
	fmt.Printf("workload: %d points, %d polygons, exact total %d\n",
		n, regions.Len(), exact.TotalCount())

	t := newTable("canvas", "pixel (m)", "approx rel err", "accurate rel err", "approx latency", "accurate latency")
	for _, res := range []int{64, 128, 256, 512, 1024, 2048} {
		apx := core.NewRasterJoin(core.WithResolution(res))
		acc := core.NewRasterJoin(core.WithResolution(res), core.WithMode(core.Accurate))
		var ra, rb *core.Result
		la := timeMedian(3, func() { ra, err = apx.Join(req); must(err) })
		lb := timeMedian(3, func() { rb, err = acc.Join(req); must(err) })
		t.row(fmt.Sprintf("%dx%d", ra.CanvasW, ra.CanvasH), ra.PixelSize,
			relErr(ra, exact), relErr(rb, exact), la, lb)
	}
	t.flush()
}

// ---------------------------------------------------------------- E3

// runE3 is the headline performance figure: query latency as the point
// count grows, raster join against the exact index joins. The paper's
// claim: raster join stays interactive (sub-second) and widens its lead as
// data grows.
func runE3(scale float64) {
	maxN := scaled(4_000_000, scale, 250_000)
	scene := workload.NYC(maxN, 2009)
	regions := scene.Neighborhoods
	fmt.Printf("workload: up to %d points, %d neighborhoods, COUNT + week filter\n",
		maxN, regions.Len())

	grid := &index.GridJoin{}
	rtree := &index.RTreeJoin{}
	apx := core.NewRasterJoin(core.WithResolution(1024))
	acc := core.NewRasterJoin(core.WithResolution(1024), core.WithMode(core.Accurate))

	// Warm up allocators and caches so the first row isn't penalized.
	warm := core.Request{Points: subsample(scene.Taxi, maxN/8), Regions: regions,
		Agg: core.Count, Time: workload.JanWeek(1)}
	_, err := apx.Join(warm)
	must(err)
	_, err = acc.Join(warm)
	must(err)

	t := newTable("points", "raster 1024px", "raster accurate", "index grid", "index rtree")
	for n := maxN / 8; n <= maxN; n *= 2 {
		pts := subsample(scene.Taxi, n)
		req := core.Request{Points: pts, Regions: regions, Agg: core.Count,
			Time: workload.JanWeek(1)}
		grid.Prepare(pts) // index build is preprocessing, not query time
		rtree.Prepare(regions)
		// Settle the heap so the subsample/index allocations don't tax the
		// first timed runs.
		runtime.GC()
		la := timeMedian(3, func() { _, err := apx.Join(req); must(err) })
		lb := timeMedian(3, func() { _, err := acc.Join(req); must(err) })
		lc := timeMedian(3, func() { _, err := grid.Join(req); must(err) })
		ld := timeMedian(3, func() { _, err := rtree.Join(req); must(err) })
		t.row(n, la, lb, lc, ld)
	}
	t.flush()
}

// ---------------------------------------------------------------- E4

// runE4 sweeps the polygon axis: more (and smaller) regions at a fixed
// point count.
func runE4(scale float64) {
	n := scaled(2_000_000, scale, 200_000)
	scene := workload.NYC(n, 2009)
	fmt.Printf("workload: %d points, COUNT, region sweep\n", n)

	grid := &index.GridJoin{}
	grid.Prepare(scene.Taxi)
	rtree := &index.RTreeJoin{}
	apx := core.NewRasterJoin(core.WithResolution(1024))

	// Warm up allocators and caches so the first row isn't penalized.
	_, err := apx.Join(core.Request{Points: scene.Taxi,
		Regions: scene.Neighborhoods, Agg: core.Count})
	must(err)

	t := newTable("polygons", "total vertices", "raster 1024px", "index grid", "index rtree")
	for _, nr := range []int{64, 260, 1024, 4096} {
		regions := data.VoronoiRegions("sweep", scene.Bounds, nr, int64(nr),
			data.VoronoiOptions{JitterFrac: 0.10})
		req := core.Request{Points: scene.Taxi, Regions: regions, Agg: core.Count}
		rtree.Prepare(regions)
		la := timeMedian(3, func() { _, err := apx.Join(req); must(err) })
		lb := timeMedian(3, func() { _, err := grid.Join(req); must(err) })
		lc := timeMedian(3, func() { _, err := rtree.Join(req); must(err) })
		t.row(regions.Len(), regions.VertexCount(), la, lb, lc)
	}
	t.flush()
}

// ---------------------------------------------------------------- E5

// runE5 is the bounded raster join accuracy table: measured error against
// the requested ε, plus the canvas/tiling cost of tightening the bound.
func runE5(scale float64) {
	n := scaled(2_000_000, scale, 200_000)
	scene := workload.NYC(n, 2009)
	regions := scene.Neighborhoods
	req := core.Request{Points: scene.Taxi, Regions: regions, Agg: core.Count}
	exact, err := (&index.BruteForce{}).Join(req)
	must(err)
	fmt.Printf("workload: %d points, %d neighborhoods; ε is ground meters\n",
		n, regions.Len())

	t := newTable("epsilon (m)", "canvas", "tiles", "rel err", "latency")
	for _, eps := range []float64{512, 256, 128, 64, 32, 16} {
		rj := core.NewRasterJoin(core.WithEpsilon(workload.GroundMeters(eps)))
		var res *core.Result
		lat := timeMedian(3, func() { res, err = rj.Join(req); must(err) })
		t.row(eps, fmt.Sprintf("%dx%d", res.CanvasW, res.CanvasH), res.Tiles,
			relErr(res, exact), lat)
	}
	t.flush()
}

// ---------------------------------------------------------------- E6

// runE6 stages the paper's core argument: pre-aggregation is fast on its
// canned queries but cannot serve ad-hoc constraints, while raster join
// serves everything at interactive speed.
func runE6(scale float64) {
	n := scaled(2_000_000, scale, 200_000)
	scene := workload.NYC(n, 2009)
	regions := scene.Neighborhoods

	start := time.Now()
	cb, err := cube.Build(scene.Taxi, cube.Config{
		Regions: regions, TimeBin: 86400, Attrs: []string{"fare"}})
	must(err)
	buildTime := time.Since(start)
	fmt.Printf("workload: %d points; cube: %d cells, built in %v\n",
		n, cb.MemoryCells(), buildTime.Round(time.Millisecond))

	rj := core.NewRasterJoin(core.WithResolution(1024))

	canned := core.Request{Points: scene.Taxi, Regions: regions, Agg: core.Count,
		Time: &core.TimeFilter{Start: cb.BinStart(0), End: cb.BinStart(7)}}
	adhocFilter := core.Request{Points: scene.Taxi, Regions: regions, Agg: core.Count,
		Filters: []core.Filter{{Attr: "fare", Min: 20, Max: 200}}}
	adhocPoly := core.Request{Points: scene.Taxi, Regions: workload.AdHocPolygon(7),
		Agg: core.Count, Filters: []core.Filter{{Attr: "fare", Min: 20, Max: 200}}}

	t := newTable("query", "cube", "raster join")
	row := func(name string, req core.Request) {
		var cubeCell string
		if err := cb.CanServe(req); err != nil {
			if errors.Is(err, cube.ErrUnsupported) {
				cubeCell = "UNSUPPORTED"
			} else {
				cubeCell = "error"
			}
		} else {
			cubeCell = timeMedian(5, func() { _, err := cb.Join(req); must(err) }).String()
		}
		rl := timeMedian(3, func() { _, err := rj.Join(req); must(err) })
		t.row(name, cubeCell, rl)
	}
	row("canned: count, aligned week", canned)
	row("ad-hoc: fare filter", adhocFilter)
	row("ad-hoc: user polygon + filter", adhocPoly)
	t.flush()
}

// ---------------------------------------------------------------- E7

// runE7 measures the demo's multi-resolution interactivity: the same query
// at neighborhood, tract, and grid resolution.
func runE7(scale float64) {
	n := scaled(2_000_000, scale, 200_000)
	scene := workload.NYC(n, 2009)
	fmt.Printf("workload: %d points, COUNT + week filter, resolution sweep\n", n)

	apx := core.NewRasterJoin(core.WithResolution(1024))
	grid := &index.GridJoin{}
	grid.Prepare(scene.Taxi)

	t := newTable("layer", "regions", "raster 1024px", "index grid", "interactive (<500ms)")
	for _, rs := range []*data.RegionSet{scene.Neighborhoods, scene.Tracts, scene.Grid} {
		req := core.Request{Points: scene.Taxi, Regions: rs, Agg: core.Count,
			Time: workload.JanWeek(2)}
		la := timeMedian(3, func() { _, err := apx.Join(req); must(err) })
		lb := timeMedian(3, func() { _, err := grid.Join(req); must(err) })
		t.row(rs.Name, rs.Len(), la, lb, la < 500*time.Millisecond)
	}
	t.flush()
}

// ---------------------------------------------------------------- E8

// runE8 drives the data exploration view: three data sets compared over
// the month at weekly granularity for a handful of neighborhoods.
func runE8(scale float64) {
	n := scaled(1_000_000, scale, 100_000)
	scene := workload.NYC(n, 2009)
	c311 := data.Generate(data.NYC311Config(n/4, 2009, time.January, 31))
	photos := data.Generate(data.NYCPhotosConfig(n/8, 2009, time.January, 32))

	f := urbane.New(core.NewRasterJoin(core.WithResolution(1024)))
	must(f.AddPointSet(scene.Taxi))
	must(f.AddPointSet(c311))
	must(f.AddPointSet(photos))
	must(f.AddRegionSet(scene.Neighborhoods))

	jan := workload.Jan2009()
	var ex *urbane.Exploration
	lat := timeMedian(1, func() {
		var err error
		ex, err = f.ExploreContext(context.Background(), urbane.ExplorationRequest{
			Datasets:  []string{"taxi", "311", "photos"},
			Selection: urbane.Selection{Layer: "neighborhoods", Agg: core.Count},
			RegionIDs: []int{0, 1, 2},
			Start:     jan.Start, End: jan.End, Bins: 12,
		})
		must(err)
	})
	queries := 3 * 12 // datasets x bins
	fmt.Printf("workload: %d+%d+%d points, 3 regions, 12 bins\n",
		scene.Taxi.Len(), c311.Len(), photos.Len())
	t := newTable("metric", "value")
	t.row("series computed", len(ex.Series))
	t.row("spatial aggregations", queries)
	t.row("total view latency", lat)
	t.row("per-aggregation", lat/time.Duration(queries))
	t.flush()

	// Ablation: the fragment-cache series join (polygon pass paid once per
	// data set) against naive per-bin joins (polygon pass paid per bin).
	rj := core.NewRasterJoin(core.WithResolution(1024))
	req := core.Request{Points: scene.Taxi, Regions: scene.Neighborhoods, Agg: core.Count}
	seriesLat := timeMedian(3, func() {
		_, err := rj.SeriesJoinContext(context.Background(), req, jan.Start, jan.End, 12)
		must(err)
	})
	width := (jan.End - jan.Start) / 12
	perBinLat := timeMedian(3, func() {
		for b := 0; b < 12; b++ {
			r := req
			r.Time = &core.TimeFilter{Start: jan.Start + int64(b)*width,
				End: jan.Start + int64(b+1)*width}
			_, err := rj.Join(r)
			must(err)
		}
	})
	fmt.Println("\nablation: cached polygon pass (12 bins, taxi x neighborhoods)")
	t2 := newTable("strategy", "latency", "speedup")
	t2.row("per-bin joins", perBinLat, 1.0)
	t2.row("series join (fragment cache)", seriesLat,
		float64(perBinLat)/float64(seriesLat))
	t2.flush()
}

// ---------------------------------------------------------------- E9

// runE9 is the hybrid ablation: what exactness costs. Approximate vs
// accurate raster join vs the exact index join, same query.
func runE9(scale float64) {
	n := scaled(2_000_000, scale, 200_000)
	scene := workload.NYC(n, 2009)
	regions := scene.Neighborhoods
	req := core.Request{Points: scene.Taxi, Regions: regions, Agg: core.Count}
	exact, err := (&index.BruteForce{}).Join(req)
	must(err)
	fmt.Printf("workload: %d points, %d neighborhoods\n", n, regions.Len())

	grid := &index.GridJoin{}
	grid.Prepare(scene.Taxi)

	t := newTable("algorithm", "latency", "rel err", "exact")
	for _, j := range []core.Joiner{
		core.NewRasterJoin(core.WithResolution(1024)),
		core.NewRasterJoin(core.WithResolution(1024), core.WithMode(core.Accurate)),
		grid,
	} {
		var res *core.Result
		lat := timeMedian(3, func() { res, err = j.Join(req); must(err) })
		e := relErr(res, exact)
		t.row(j.Name(), lat, e, e == 0)
	}
	t.flush()

	// The knob behind the cost: how much of the canvas is boundary.
	apx := core.NewRasterJoin(core.WithResolution(1024))
	res, err := apx.Join(req)
	must(err)
	fmt.Printf("\ncanvas %dx%d, pixel %.0fm: exactness costs only the boundary-pixel work\n",
		res.CanvasW, res.CanvasH, res.PixelSize)
}

// ---------------------------------------------------------------- E11

// runE11 measures the OD flow view (Urbane's taxi-flow visualization): the
// raster flow join against a geometric R-tree baseline resolving both trip
// ends exactly.
func runE11(scale float64) {
	n := scaled(1_000_000, scale, 100_000)
	scene := workload.NYC(n, 2009)
	regions := scene.Neighborhoods
	req := core.Request{Points: scene.Taxi, Regions: regions, Agg: core.Count}
	fmt.Printf("workload: %d trips, %d neighborhoods\n", n, regions.Len())

	rj := core.NewRasterJoin(core.WithResolution(1024))
	var flow *core.FlowResult
	var err error
	rasterLat := timeMedian(3, func() {
		flow, err = rj.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
		must(err)
	})

	// Geometric baseline: R-tree over region boxes, exact PIP per end.
	rtree := &index.RTreeJoin{}
	rtree.Prepare(regions)
	dx := scene.Taxi.Attr(data.DropoffXAttr)
	dy := scene.Taxi.Attr(data.DropoffYAttr)
	geoLat := timeMedian(1, func() {
		counts := map[int64]int64{}
		tr := indexRTree(regions)
		nr := int64(regions.Len())
		for i := 0; i < scene.Taxi.Len(); i++ {
			o := locateExact(tr, regions, scene.Taxi.X[i], scene.Taxi.Y[i])
			if o < 0 {
				continue
			}
			d := locateExact(tr, regions, dx[i], dy[i])
			if d < 0 {
				continue
			}
			counts[int64(o)*nr+int64(d)]++
		}
	})

	t := newTable("algorithm", "latency", "resolved flows", "dropped")
	t.row("raster flow join 1024px", rasterLat, flow.Total(), flow.Dropped)
	t.row("geometric (rtree + exact PIP)", geoLat, "-", "-")
	t.flush()

	fmt.Println("\ntop flows:")
	t2 := newTable("from", "to", "trips")
	for _, e := range flow.Top(5) {
		t2.row(regions.Regions[e.From].Name, regions.Regions[e.To].Name, e.Count)
	}
	t2.flush()
}

func indexRTree(rs *data.RegionSet) *index.RTree {
	boxes := make([]geom.BBox, rs.Len())
	for i, r := range rs.Regions {
		boxes[i] = r.Poly.BBox()
	}
	return index.BuildRTree(boxes)
}

func locateExact(tr *index.RTree, rs *data.RegionSet, x, y float64) int32 {
	p := geom.Point{X: x, Y: y}
	found := int32(-1)
	tr.SearchPoint(p, func(id int32) {
		if found < 0 && rs.Regions[id].Poly.Contains(p) {
			found = id
		}
	})
	return found
}

// ---------------------------------------------------------------- E12

// runE12 sweeps filter selectivity: the intro's argument is that ad-hoc
// filterConditions break pre-aggregation entirely, while raster join
// evaluates them inline at essentially constant cost — the filter is one
// predicate in the point pass, whatever fraction of the data it keeps.
func runE12(scale float64) {
	n := scaled(2_000_000, scale, 200_000)
	scene := workload.NYC(n, 2009)
	regions := scene.Neighborhoods
	fmt.Printf("workload: %d points, %d neighborhoods, COUNT with fare filter\n",
		n, regions.Len())

	rj := core.NewRasterJoin(core.WithResolution(1024))
	grid := &index.GridJoin{}
	grid.Prepare(scene.Taxi)
	// Warm up.
	_, err := rj.Join(core.Request{Points: scene.Taxi, Regions: regions, Agg: core.Count})
	must(err)

	// Fare thresholds spanning selectivities from ~all to ~none.
	t := newTable("filter", "selectivity", "raster 1024px", "index grid", "cube")
	for _, minFare := range []float64{0, 10, 20, 40, 80} {
		req := core.Request{Points: scene.Taxi, Regions: regions, Agg: core.Count,
			Filters: []core.Filter{{Attr: "fare", Min: minFare, Max: 1e18}}}
		var res *core.Result
		la := timeMedian(3, func() { res, err = rj.Join(req); must(err) })
		lb := timeMedian(3, func() { _, err := grid.Join(req); must(err) })
		sel := float64(res.TotalCount()) / float64(n)
		t.row(fmt.Sprintf("fare >= %g", minFare), sel, la, lb, "UNSUPPORTED")
	}
	t.flush()
}

// ---------------------------------------------------------------- E13

// runE13 ablates polygon level-of-detail: Urbane swaps in simplified region
// geometry at low zooms. Simplification sheds boundary edges, which is
// where the accurate join spends its exact-test budget; the price is a
// bounded geometric error against the full-detail answer.
func runE13(scale float64) {
	n := scaled(2_000_000, scale, 200_000)
	scene := workload.NYC(n, 2009)
	full := scene.Neighborhoods
	req := core.Request{Points: scene.Taxi, Regions: full, Agg: core.Count}
	acc := core.NewRasterJoin(core.WithResolution(1024), core.WithMode(core.Accurate))
	exact, err := acc.Join(req) // full-detail exact reference (also warms up)
	must(err)
	fmt.Printf("workload: %d points, %d neighborhoods (%d vertices), accurate join\n",
		n, full.Len(), full.VertexCount())

	t := newTable("tolerance (m)", "vertices", "latency", "rel err vs full detail")
	for _, tol := range []float64{0, 25, 100, 400} {
		layer := full
		if tol > 0 {
			layer = data.SimplifyRegions(full, tol)
		}
		lreq := core.Request{Points: scene.Taxi, Regions: layer, Agg: core.Count}
		var res *core.Result
		lat := timeMedian(3, func() { res, err = acc.Join(lreq); must(err) })
		t.row(tol, layer.VertexCount(), lat, relErr(res, exact))
	}
	t.flush()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
