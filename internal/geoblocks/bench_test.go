package geoblocks_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geoblocks"
	"repro/internal/geom"
	"repro/internal/geom/geomtest"
	"repro/internal/workload"
)

// Benchmark polygons at three selectivities: "tiny" touches a handful of
// fringe cells, "city" covers a mid-sized district, "borough" spans
// nearly half the grid — the trio E19 (EXPERIMENTS.md) swept.
var benchShapes = []struct {
	name string
	pg   geom.Polygon
}{
	{"tiny", geom.NewPolygon(geomtest.RegularRing(geom.Point{X: 420, Y: 610}, 12, 8))},
	{"city", geom.NewPolygon(geom.StarRing(geom.Point{X: 500, Y: 450}, 180, 90, 9))},
	{"borough", geom.NewPolygon(geomtest.RegularRing(geom.Point{X: 480, Y: 520}, 430, 20))},
}

// BenchmarkGeoBlocksWarm measures steady-state hybrid queries: the index
// is built once outside the timer, every iteration classifies + refines.
func BenchmarkGeoBlocksWarm(b *testing.B) {
	ps := buildScene(b, 200_000, 81)
	eng := geoblocks.NewEngine(core.NewRasterJoin(core.WithMode(core.Accurate)), 8)
	ctx := context.Background()
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			req := core.Request{Points: ps, Regions: regions(sh.pg), Agg: core.Sum, Attr: "v"}
			if _, err := eng.JoinContext(ctx, req); err != nil { // build + warm
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.JoinContext(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGeoBlocksCold pays the full index build on every iteration —
// the cost the first query on a data-set snapshot sees.
func BenchmarkGeoBlocksCold(b *testing.B) {
	ps := buildScene(b, 200_000, 81)
	raster := core.NewRasterJoin(core.WithMode(core.Accurate))
	ctx := context.Background()
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			req := core.Request{Points: ps, Regions: regions(sh.pg), Agg: core.Sum, Attr: "v"}
			for i := 0; i < b.N; i++ {
				eng := geoblocks.NewEngine(raster, 8) // empty store: the query builds
				if _, err := eng.JoinContext(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGeoBlocksVsRaster pins the comparison the hierarchy exists
// for: the same polygon query through the warm hybrid and through the
// full accurate raster join.
func BenchmarkGeoBlocksVsRaster(b *testing.B) {
	ps := buildScene(b, 200_000, 81)
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(512))
	eng := geoblocks.NewEngine(raster, 8)
	ctx := context.Background()
	for _, sh := range benchShapes {
		req := core.Request{Points: ps, Regions: regions(sh.pg), Agg: core.Sum, Attr: "v"}
		b.Run("hybrid/"+sh.name, func(b *testing.B) {
			if _, err := eng.JoinContext(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.JoinContext(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("raster/"+sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := raster.JoinContext(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// onScene maps a shape from the [0,1000]² benchmark world onto b, so the
// E19 shapes can run against the NYC scene's data sets.
func onScene(pg geom.Polygon, b geom.BBox) geom.Polygon {
	at := func(r geom.Ring) geom.Ring {
		out := make(geom.Ring, len(r))
		for i, p := range r {
			out[i] = geom.Point{X: b.MinX + p.X/1000*b.Width(), Y: b.MinY + p.Y/1000*b.Height()}
		}
		return out
	}
	out := geom.Polygon{Outer: at(pg.Outer)}
	for _, h := range pg.Holes {
		out.Holes = append(out.Holes, at(h))
	}
	return out
}

// sceneTarget is one region set a whole-layer request aggregates over, and
// whether the cost rule should decline it.
type sceneTarget struct {
	name    string
	rs      *data.RegionSet
	decline bool
}

// sceneTargets returns the NYC scene's three layers, which the cost rule
// hands to the raster join, and the E19 shapes scaled onto NYC, which stay
// on the hybrid.
func sceneTargets(sc *workload.Scene) []sceneTarget {
	out := []sceneTarget{
		{"neighborhoods", sc.Neighborhoods, true},
		{"tracts", sc.Tracts, true},
		{"grid64", sc.Grid, true},
	}
	for _, sh := range benchShapes {
		out = append(out, sceneTarget{sh.name, regions(onScene(sh.pg, sc.Bounds)), false})
	}
	return out
}

// BenchmarkGeoBlocksLayers is the measurement behind DeclineRatio: every
// scene target over taxi, 311 and photos at the benchmark harness's sizes
// (1 M, 250 k and 125 k points), SUM of each set's first attribute, through
// the hybrid (pinned, so it runs even where the rule declines) and through
// the accurate raster join at the server's 1024 px, both warm. The hybrid
// rows also report the fringe estimate per indexed point, the figure the
// rule compares with 1/DeclineRatio. Run with -cpu 1 for one core.
func BenchmarkGeoBlocksLayers(b *testing.B) {
	sc := workload.NYC(1_000_000, 2009)
	sets := []*data.PointSet{
		sc.Taxi,
		data.Generate(data.NYC311Config(250_000, 2009, time.January, 2019)),
		data.Generate(data.NYCPhotosConfig(125_000, 2009, time.January, 2029)),
	}
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(1024))
	ctx := context.Background()
	for _, ps := range sets {
		hybrid := geoblocks.PinHybrid(geoblocks.NewEngine(raster, geoblocks.DefaultMaxLevel))
		ix, err := hybrid.Store().Get(ctx, ps)
		if err != nil {
			b.Fatal(err)
		}
		for _, tg := range sceneTargets(sc) {
			req := core.Request{Points: ps, Regions: tg.rs, Agg: core.Sum, Attr: ps.Attrs[0].Name}
			est, err := ix.FringeEstimate(ctx, tg.rs)
			if err != nil {
				b.Fatal(err)
			}
			for _, path := range []struct {
				name string
				j    core.Joiner
			}{{"hybrid", hybrid}, {"raster", raster}} {
				b.Run(ps.Name+"/"+tg.name+"/"+path.name, func(b *testing.B) {
					if _, err := path.j.JoinContext(ctx, req); err != nil { // warm caches
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := path.j.JoinContext(ctx, req); err != nil {
							b.Fatal(err)
						}
					}
					if path.j == hybrid {
						b.ReportMetric(float64(est)/float64(ps.Len()), "fringe/pt")
					}
				})
			}
		}
	}
}
