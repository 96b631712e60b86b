package core_test

// The texture pool and the layer's scratch pool under sharing: joins that
// run at once on one joiner take clean textures and scratch from the same
// pools and give the bits a sequential run gives, and the scratch of an
// ad-hoc polygon goes with it.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// quad is a one-region set, an ad-hoc polygon: a quadrilateral with one
// vertex on each side of the box [x0, x0+size]², at fractions a–d along
// them, so quads of one box differ in shape but share a canvas size.
func quad(x0, size, a, b, c, d float64) *data.RegionSet {
	x1 := x0 + size
	ring := geom.Ring{{X: x0 + a*size, Y: x0}, {X: x1, Y: x0 + b*size}, {X: x1 - c*size, Y: x1}, {X: x0, Y: x1 - d*size}}
	return &data.RegionSet{Name: "adhoc", Regions: []data.Region{{ID: 0, Poly: geom.NewPolygon(ring)}}}
}

// TestPooledConcurrentJoins: two goroutines share one joiner and interleave
// joins over two layers and one-region ad-hoc polygons, with every
// aggregate, three rounds over, so each takes textures and scratch the
// other released. Every result equals, bit for bit, the same join in a
// sequential run on a fresh joiner.
func TestPooledConcurrentJoins(t *testing.T) {
	ps, nbhd := scene(20_000, 16, 301)
	grid := data.GridRegions("grid", geom.BBox{MaxX: 1000, MaxY: 1000}, 6, 6)
	aggs := []core.Agg{core.Count, core.Sum, core.Avg, core.Min, core.Max}
	var reqs []core.Request
	for i := 0; i < 30; i++ {
		layer := nbhd
		switch i % 3 {
		case 1:
			layer = grid
		case 2:
			f := float64(i) / 30
			layer = quad(150, 600, f, 1-f, 0.5*f, 0.3+0.5*f)
		}
		req := core.Request{Points: ps, Regions: layer, Agg: aggs[i%len(aggs)]}
		if req.Agg.NeedsAttr() {
			req.Attr = "v"
		}
		reqs = append(reqs, req)
	}
	ctx := context.Background()
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		opts := []core.RJOption{core.WithMode(mode), core.WithResolution(200), core.WithWorkers(2)}
		want := make([]*core.Result, len(reqs))
		seq := core.NewRasterJoin(opts...)
		for i, req := range reqs {
			res, err := seq.JoinContext(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		shared := core.NewRasterJoin(opts...)
		const rounds = 3
		got := make([]*core.Result, rounds*len(reqs))
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(got); i += 2 {
					got[i], errs[i] = shared.JoinContext(ctx, reqs[i%len(reqs)])
				}
			}(g)
		}
		wg.Wait()
		for i, res := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			w := want[i%len(reqs)]
			for k, s := range res.Stats {
				ws := w.Stats[k]
				if s.Count != ws.Count || math.Float64bits(s.Sum) != math.Float64bits(ws.Sum) ||
					math.Float64bits(s.Min) != math.Float64bits(ws.Min) || math.Float64bits(s.Max) != math.Float64bits(ws.Max) {
					t.Fatalf("%v join %d (round %d) region %d: %+v, want %+v", mode, i%len(reqs), i/len(reqs), k, s, ws)
				}
			}
		}
		requireDevDrained(t, shared.Device(), fmt.Sprintf("%v after the shared run", mode))
	}
}

// TestPooledScratchDiesWithLayer: a join on an ad-hoc polygon compiles it
// for that request alone, and the scratch sized to it goes with it. After
// 200 more accurate joins at 1024 px over distinct quads of one box — each
// leaving well over 128 KiB of scratch and compiled layer were either kept —
// the live heap has not grown by more than a few MiB.
func TestPooledScratchDiesWithLayer(t *testing.T) {
	ps, _ := scene(20_000, 4, 307)
	rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(1024))
	ctx := context.Background()
	join := func(i int) {
		f := float64(i%200) / 200
		req := core.Request{Points: ps, Regions: quad(200, 500, f, 1-f, 0.3, 0.7*f), Agg: core.Sum, Attr: "v"}
		if _, err := rj.JoinContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 20; i++ {
		join(i)
	}
	before := heap()
	for i := 20; i < 220; i++ {
		join(i)
	}
	if after := heap(); after > before+8<<20 {
		t.Fatalf("live heap grew from %d to %d bytes over 200 ad-hoc joins", before, after)
	}
}
