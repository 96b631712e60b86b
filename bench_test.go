// Package repro's root benchmarks regenerate every evaluation exhibit as a
// testing.B benchmark — one Benchmark per experiment in DESIGN.md's index
// (E1–E9). cmd/urbane-bench prints the same rows as formatted tables with
// larger default workloads; these benches are sized so the full suite runs
// in a few minutes.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/urbane"
	"repro/internal/workload"
)

// benchPoints is the base workload size; E3 sweeps up to this.
const benchPoints = 1_000_000

var (
	benchOnce  sync.Once
	benchScene *workload.Scene
)

func getScene() *workload.Scene {
	benchOnce.Do(func() { benchScene = workload.NYC(benchPoints, 2009) })
	return benchScene
}

// subsample keeps every k-th point, preserving distribution and time order.
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

func mustJoin(b *testing.B, j core.Joiner, req core.Request) *core.Result {
	b.Helper()
	res, err := j.JoinContext(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE1MapView regenerates E1: the Figure-1 map view — taxi pickups
// in a January week aggregated over the neighborhoods, through the full
// Urbane stack.
func BenchmarkE1MapView(b *testing.B) {
	scene := getScene()
	f := urbane.New(core.NewRasterJoin(core.WithResolution(1024)))
	if err := f.AddPointSet(scene.Taxi); err != nil {
		b.Fatal(err)
	}
	if err := f.AddRegionSet(scene.Neighborhoods); err != nil {
		b.Fatal(err)
	}
	req := urbane.Selection{
		Dataset: "taxi", Layer: "neighborhoods",
		Agg: core.Count, Time: workload.JanWeek(1),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.MapViewContext(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Pipeline regenerates E2: the raster pipeline at increasing
// canvas resolutions, approximate and accurate variants.
func BenchmarkE2Pipeline(b *testing.B) {
	scene := getScene()
	pts := subsample(scene.Taxi, 100_000)
	regions := data.VoronoiRegions("nbhd16", scene.Bounds, 16, 12,
		data.VoronoiOptions{JitterFrac: 0.12})
	req := core.Request{Points: pts, Regions: regions, Agg: core.Count}
	for _, res := range []int{128, 512, 2048} {
		for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
			rj := core.NewRasterJoin(core.WithResolution(res), core.WithMode(mode))
			b.Run(fmt.Sprintf("res=%d/%v", res, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustJoin(b, rj, req)
				}
			})
		}
	}
}

// BenchmarkE3PointsSweep regenerates E3: latency vs point count for raster
// join and the index-join baselines.
func BenchmarkE3PointsSweep(b *testing.B) {
	scene := getScene()
	regions := scene.Neighborhoods
	for _, n := range []int{125_000, 250_000, 500_000, 1_000_000} {
		pts := subsample(scene.Taxi, n)
		req := core.Request{Points: pts, Regions: regions, Agg: core.Count,
			Time: workload.JanWeek(1)}
		grid := &index.GridJoin{}
		grid.Prepare(pts)
		rtree := &index.RTreeJoin{}
		rtree.Prepare(regions)
		algos := []core.Joiner{
			core.NewRasterJoin(core.WithResolution(1024)),
			core.NewRasterJoin(core.WithResolution(1024), core.WithMode(core.Accurate)),
			grid,
			rtree,
		}
		for _, j := range algos {
			b.Run(fmt.Sprintf("n=%d/%s", n, j.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustJoin(b, j, req)
				}
			})
		}
	}
}

// BenchmarkE4PolygonSweep regenerates E4: latency vs region count.
func BenchmarkE4PolygonSweep(b *testing.B) {
	scene := getScene()
	pts := subsample(scene.Taxi, 500_000)
	grid := &index.GridJoin{}
	grid.Prepare(pts)
	for _, nr := range []int{64, 260, 1024} {
		regions := data.VoronoiRegions("sweep", scene.Bounds, nr, int64(nr),
			data.VoronoiOptions{JitterFrac: 0.10})
		req := core.Request{Points: pts, Regions: regions, Agg: core.Count}
		rtree := &index.RTreeJoin{}
		rtree.Prepare(regions)
		algos := []core.Joiner{
			core.NewRasterJoin(core.WithResolution(1024)),
			grid,
			rtree,
		}
		for _, j := range algos {
			b.Run(fmt.Sprintf("regions=%d/%s", nr, j.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustJoin(b, j, req)
				}
			})
		}
	}
}

// BenchmarkE5Accuracy regenerates E5: bounded raster join across ε, also
// reporting the measured relative error per run via ReportMetric.
func BenchmarkE5Accuracy(b *testing.B) {
	scene := getScene()
	pts := subsample(scene.Taxi, 500_000)
	regions := scene.Neighborhoods
	req := core.Request{Points: pts, Regions: regions, Agg: core.Count}
	exact, err := (&index.BruteForce{}).JoinContext(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{256, 64, 16} {
		rj := core.NewRasterJoin(core.WithEpsilon(workload.GroundMeters(eps)))
		b.Run(fmt.Sprintf("eps=%gm", eps), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustJoin(b, rj, req)
			}
			var errSum int64
			for k := range res.Stats {
				d := res.Stats[k].Count - exact.Stats[k].Count
				if d < 0 {
					d = -d
				}
				errSum += d
			}
			b.ReportMetric(float64(errSum)/float64(exact.TotalCount()), "relerr")
			b.ReportMetric(float64(res.Tiles), "tiles")
		})
	}
}

// BenchmarkE6CubeVsRaster regenerates E6: the canned query served from the
// cube versus the same and an ad-hoc query through raster join.
func BenchmarkE6CubeVsRaster(b *testing.B) {
	scene := getScene()
	pts := subsample(scene.Taxi, 500_000)
	regions := scene.Neighborhoods
	cb, err := cube.Build(pts, cube.Config{Regions: regions, TimeBin: 86400,
		Attrs: []string{"fare"}})
	if err != nil {
		b.Fatal(err)
	}
	rj := core.NewRasterJoin(core.WithResolution(1024))
	canned := core.Request{Points: pts, Regions: regions, Agg: core.Count,
		Time: &core.TimeFilter{Start: cb.BinStart(0), End: cb.BinStart(7)}}
	adhoc := core.Request{Points: pts, Regions: regions, Agg: core.Count,
		Filters: []core.Filter{{Attr: "fare", Min: 20, Max: 1e9}}}

	b.Run("canned/cube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustJoin(b, cb, canned)
		}
	})
	b.Run("canned/raster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustJoin(b, rj, canned)
		}
	})
	b.Run("adhoc/raster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustJoin(b, rj, adhoc)
		}
	})
	b.Run("cube-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cube.Build(pts, cube.Config{Regions: regions,
				TimeBin: 86400, Attrs: []string{"fare"}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7Resolutions regenerates E7: the same query across Urbane's
// resolutions (neighborhoods, tracts, grid).
func BenchmarkE7Resolutions(b *testing.B) {
	scene := getScene()
	pts := subsample(scene.Taxi, 500_000)
	rj := core.NewRasterJoin(core.WithResolution(1024))
	for _, rs := range []*data.RegionSet{scene.Neighborhoods, scene.Tracts, scene.Grid} {
		req := core.Request{Points: pts, Regions: rs, Agg: core.Count,
			Time: workload.JanWeek(2)}
		b.Run(rs.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustJoin(b, rj, req)
			}
		})
	}
}

// BenchmarkE8Exploration regenerates E8: the data exploration view — three
// data sets by twelve time bins over selected neighborhoods.
func BenchmarkE8Exploration(b *testing.B) {
	scene := getScene()
	taxi := subsample(scene.Taxi, 400_000)
	c311 := data.Generate(data.NYC311Config(100_000, 2009, time.January, 31))
	photos := data.Generate(data.NYCPhotosConfig(50_000, 2009, time.January, 32))
	f := urbane.New(core.NewRasterJoin(core.WithResolution(1024)))
	for _, ps := range []*data.PointSet{taxi, c311, photos} {
		if err := f.AddPointSet(ps); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.AddRegionSet(scene.Neighborhoods); err != nil {
		b.Fatal(err)
	}
	jan := workload.Jan2009()
	req := urbane.ExplorationRequest{
		Datasets:  []string{"taxi", "311", "photos"},
		Selection: urbane.Selection{Layer: "neighborhoods", Agg: core.Count},
		RegionIDs: []int{0, 1, 2},
		Start:     jan.Start, End: jan.End, Bins: 12,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ExploreContext(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Flows regenerates E11: the OD flow view — the raster flow
// join producing the origin-destination matrix.
func BenchmarkE11Flows(b *testing.B) {
	scene := getScene()
	pts := subsample(scene.Taxi, 500_000)
	rj := core.NewRasterJoin(core.WithResolution(1024))
	req := core.Request{Points: pts, Regions: scene.Neighborhoods, Agg: core.Count}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rj.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Selectivity regenerates E12: raster join latency across
// filter selectivities (ad-hoc constraints are ~free).
func BenchmarkE12Selectivity(b *testing.B) {
	scene := getScene()
	pts := subsample(scene.Taxi, 500_000)
	rj := core.NewRasterJoin(core.WithResolution(1024))
	for _, minFare := range []float64{0, 20, 80} {
		req := core.Request{Points: pts, Regions: scene.Neighborhoods, Agg: core.Count,
			Filters: []core.Filter{{Attr: "fare", Min: minFare, Max: 1e18}}}
		b.Run(fmt.Sprintf("fare>=%g", minFare), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustJoin(b, rj, req)
			}
		})
	}
}

// BenchmarkE13LOD regenerates E13: accurate-join latency across polygon
// level-of-detail tolerances.
func BenchmarkE13LOD(b *testing.B) {
	scene := getScene()
	pts := subsample(scene.Taxi, 500_000)
	acc := core.NewRasterJoin(core.WithResolution(1024), core.WithMode(core.Accurate))
	for _, tol := range []float64{0, 100, 400} {
		layer := scene.Neighborhoods
		if tol > 0 {
			layer = data.SimplifyRegions(layer, tol)
		}
		req := core.Request{Points: pts, Regions: layer, Agg: core.Count}
		b.Run(fmt.Sprintf("tol=%gm", tol), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustJoin(b, acc, req)
			}
		})
	}
}

// benchQueryServer builds a server over the E1 scene (taxi + neighborhoods
// at resolution 1024) for the cache benchmarks.
func benchQueryServer(b *testing.B, opts ...urbane.ServerOption) *urbane.Server {
	b.Helper()
	scene := getScene()
	f := urbane.New(core.NewRasterJoin(core.WithResolution(1024)))
	if err := f.AddPointSet(scene.Taxi); err != nil {
		b.Fatal(err)
	}
	if err := f.AddRegionSet(scene.Neighborhoods); err != nil {
		b.Fatal(err)
	}
	return urbane.NewServer(f, opts...)
}

// e1MapViewBody is the E1 map-view request as the HTTP API receives it.
func e1MapViewBody(b *testing.B) []byte {
	b.Helper()
	week := workload.JanWeek(1)
	payload, err := json.Marshal(map[string]any{
		"dataset": "taxi", "layer": "neighborhoods", "agg": "count",
		"time": map[string]int64{"start": week.Start, "end": week.End},
	})
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

func benchServeMapView(b *testing.B, s *urbane.Server, payload []byte) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/mapview", bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkServerQueryUncached measures the E1 map-view workload through the
// HTTP server with the result cache disabled: every request pays the full
// raster join.
func BenchmarkServerQueryUncached(b *testing.B) {
	s := benchQueryServer(b, urbane.WithCache(0))
	payload := e1MapViewBody(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServeMapView(b, s, payload)
	}
}

// BenchmarkServerQueryCached measures the same workload with the cache on,
// primed by one request; steady state is the hit path (key canonicalization
// + LRU lookup + response write).
func BenchmarkServerQueryCached(b *testing.B) {
	s := benchQueryServer(b)
	payload := e1MapViewBody(b)
	benchServeMapView(b, s, payload) // prime: pay the one miss up front
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServeMapView(b, s, payload)
	}
}

// BenchmarkE9Hybrid regenerates E9: the exactness ablation — approximate
// raster join, the accurate hybrid, and the exact grid index join.
func BenchmarkE9Hybrid(b *testing.B) {
	scene := getScene()
	pts := subsample(scene.Taxi, 500_000)
	regions := scene.Neighborhoods
	req := core.Request{Points: pts, Regions: regions, Agg: core.Count}
	grid := &index.GridJoin{}
	grid.Prepare(pts)
	algos := []core.Joiner{
		core.NewRasterJoin(core.WithResolution(1024)),
		core.NewRasterJoin(core.WithResolution(1024), core.WithMode(core.Accurate)),
		grid,
	}
	for _, j := range algos {
		b.Run(j.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustJoin(b, j, req)
			}
		})
	}
}
