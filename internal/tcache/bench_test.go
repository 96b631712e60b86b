package tcache_test

// Window-maintenance benchmarks: the steady-state warm fold (every slab
// partial cached — the slider's common case) against the cold fold a full
// invalidation would force (every slab recomputed through the raster
// join). The benchmark's tcache.slide_ms measures the intermediate one-slab
// slide (1 recompute + W-1 reuses).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/tcache"
)

func benchScene(b *testing.B) (*core.RasterJoin, core.Request) {
	ps := buildTemporalScene(b, 100_000, 42)
	rs := queryRegions(rand.New(rand.NewSource(42)))
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(256))
	return raster, core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
}

func BenchmarkIncrementalWindowWarm(b *testing.B) {
	raster, req := benchScene(b)
	ctx := context.Background()
	for _, w := range []int64{4, 8, 16} {
		b.Run(fmt.Sprintf("slabs=%d", w), func(b *testing.B) {
			j := tcache.New(raster, 3600, 0, 0)
			req := req
			req.Time = &core.TimeFilter{Start: 0, End: w * 3600}
			if _, err := j.JoinContext(ctx, req); err != nil { // warm every slab
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := j.JoinContext(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIncrementalWindowColdAppend(b *testing.B) {
	raster, req := benchScene(b)
	ctx := context.Background()
	for _, w := range []int64{4, 8, 16} {
		b.Run(fmt.Sprintf("slabs=%d", w), func(b *testing.B) {
			req := req
			req.Time = &core.TimeFilter{Start: 0, End: w * 3600}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				j := tcache.New(raster, 3600, 0, 0) // cold cache: every slab recomputes
				b.StartTimer()
				if _, err := j.JoinContext(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
