package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/workload"
)

func BenchmarkRasterJoinModes(b *testing.B) {
	ps, rs := scene(100_000, 32, 101)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		rj := core.NewRasterJoin(core.WithResolution(512), core.WithMode(mode))
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rj.JoinContext(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRasterJoinResolution(b *testing.B) {
	ps, rs := scene(100_000, 32, 103)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	for _, res := range []int{256, 1024, 2048} {
		rj := core.NewRasterJoin(core.WithResolution(res))
		b.Run(fmt.Sprintf("%dpx", res), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rj.JoinContext(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRasterJoinAggregates(b *testing.B) {
	ps, rs := scene(100_000, 32, 105)
	rj := core.NewRasterJoin(core.WithResolution(512))
	for _, agg := range []core.Agg{core.Count, core.Avg} {
		req := core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v"}
		b.Run(agg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rj.JoinContext(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccurateOverhead measures what boundary refine adds to a join:
// approximate against accurate on the 1 M-point taxi scene over each of its
// three layers, SUM(fare) over 80 % of January at 1024 px, the span cache
// warm as on a server after its first request per layer.
func BenchmarkAccurateOverhead(b *testing.B) {
	sc := workload.NYC(1_000_000, 2009)
	jan := workload.Jan2009()
	window := &core.TimeFilter{Start: jan.Start, End: jan.Start + (jan.End-jan.Start)*4/5}
	ctx := context.Background()
	for _, layer := range []*data.RegionSet{sc.Neighborhoods, sc.Tracts, sc.Grid} {
		req := core.Request{Points: sc.Taxi, Regions: layer, Agg: core.Sum, Attr: "fare", Time: window}
		for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
			rj := core.NewRasterJoin(core.WithResolution(1024), core.WithMode(mode))
			b.Run(layer.Name+"/"+mode.String(), func(b *testing.B) {
				if _, err := rj.JoinContext(ctx, req); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rj.JoinContext(ctx, req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSeriesJoinVsPerBin compares one series tile against one join
// per bin: 12 dense bins of a 200 k-point scene, and the slab fold's shape —
// 54 one-hour bins of the 1 M-point taxi scene over the 2048 tracts,
// accurate at 1024 px, SUM — where each bin holds ~1.3 k points and the
// one-shot join over the whole window is the yardstick.
func BenchmarkSeriesJoinVsPerBin(b *testing.B) {
	ps, rs := scene(200_000, 32, 107)
	rj := core.NewRasterJoin(core.WithResolution(512))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	run := func(b *testing.B, rj *core.RasterJoin, req core.Request, start, end int64, bins int) {
		ctx := context.Background()
		width := (end - start) / int64(bins)
		b.Run("series", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rj.SeriesJoinContext(ctx, req, start, end, bins); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("per-bin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for bin := int64(0); bin < int64(bins); bin++ {
					r := req
					r.Time = &core.TimeFilter{Start: start + bin*width, End: start + (bin+1)*width}
					if _, err := rj.JoinContext(ctx, r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run("one-shot", func(b *testing.B) {
			r := req
			r.Time = &core.TimeFilter{Start: start, End: end}
			for i := 0; i < b.N; i++ {
				if _, err := rj.JoinContext(ctx, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("12x-dense", func(b *testing.B) { run(b, rj, req, 0, int64(ps.Len()), 12) })
	b.Run("54x1h-taxi1M-tracts", func(b *testing.B) {
		sc := workload.NYC(1_000_000, 2009)
		acc := core.NewRasterJoin(core.WithResolution(1024), core.WithMode(core.Accurate))
		start := workload.JanWeek(1).Start
		req := core.Request{Points: sc.Taxi, Regions: sc.Tracts, Agg: core.Sum, Attr: "fare"}
		run(b, acc, req, start, start+54*3600, 54)
	})
}

// BenchmarkJoinContextOverhead measures what threading a context through
// the join path costs when nothing cancels: the E1-style accurate join via
// the legacy wrapper versus JoinContext with a background context. The two
// run the identical kernel; the delta is the per-batch ctx.Err() checks
// (recorded as E15 in EXPERIMENTS.md, acceptance < 1%).
func BenchmarkJoinContextOverhead(b *testing.B) {
	ps, rs := scene(100_000, 32, 111)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	rj := core.NewRasterJoin(core.WithResolution(512), core.WithMode(core.Accurate),
		core.WithPointBatch(4096))
	b.Run("Join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rj.JoinContext(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("JoinContext", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := rj.JoinContext(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpanCacheWarm isolates the region span cache (E17): a
// polygon-heavy accurate join (2048 tract-scale regions, few points) with
// the cache disabled (the layer compiled every join) versus warm (every
// pass reads the cached compiled layer).
func BenchmarkSpanCacheWarm(b *testing.B) {
	ps, rs := scene(5_000, 2048, 115)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	run := func(b *testing.B, rj *core.RasterJoin) {
		ctx := context.Background()
		if _, err := rj.JoinContext(ctx, req); err != nil { // warm pools (and cache, when enabled)
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rj.JoinContext(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		dev := gpu.New(gpu.WithSpanCacheBytes(0))
		run(b, core.NewRasterJoin(core.WithDevice(dev), core.WithResolution(1024),
			core.WithMode(core.Accurate)))
	})
	b.Run("warm", func(b *testing.B) {
		dev := gpu.New()
		run(b, core.NewRasterJoin(core.WithDevice(dev), core.WithResolution(1024),
			core.WithMode(core.Accurate)))
	})
}

// BenchmarkFlow times the OD join behind the flow view: the 1 M-point taxi
// scene's trips over neighborhoods and tracts, in both modes at 1024 px,
// the span cache warm as on a server after its first request per layer.
func BenchmarkFlow(b *testing.B) {
	sc := workload.NYC(1_000_000, 2009)
	req := core.Request{Points: sc.Taxi, Agg: core.Count}
	ctx := context.Background()
	for _, layer := range []*data.RegionSet{sc.Neighborhoods, sc.Tracts} {
		req.Regions = layer
		for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
			rj := core.NewRasterJoin(core.WithResolution(1024), core.WithMode(mode))
			b.Run(layer.Name+"/"+mode.String(), func(b *testing.B) {
				flow := func() {
					if _, err := rj.FlowJoinContext(ctx, req, data.DropoffXAttr, data.DropoffYAttr); err != nil {
						b.Fatal(err)
					}
				}
				flow()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					flow()
				}
			})
		}
	}
}
