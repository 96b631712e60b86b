package geoblocks_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/geoblocks"
	"repro/internal/geom"
)

// Benchmark polygons at three selectivities: "tiny" touches a handful of
// fringe cells, "city" covers a mid-sized district, "borough" spans
// nearly half the grid — the trio E19 (EXPERIMENTS.md) swept.
var benchShapes = []struct {
	name string
	pg   geom.Polygon
}{
	{"tiny", geom.NewPolygon(geom.RegularRing(geom.Point{X: 420, Y: 610}, 12, 8))},
	{"city", geom.NewPolygon(geom.StarRing(geom.Point{X: 500, Y: 450}, 180, 90, 9))},
	{"borough", geom.NewPolygon(geom.RegularRing(geom.Point{X: 480, Y: 520}, 430, 20))},
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
