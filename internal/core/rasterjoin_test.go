package core_test

// External test package: the tests compare Raster Join against the exact
// geometric joiners in internal/index, which itself imports internal/core.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/trace"
)

func scene(np, nr int, seed int64) (*data.PointSet, *data.RegionSet) {
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{
		Name: "pts",
		X:    make([]float64, np),
		Y:    make([]float64, np),
		T:    make([]int64, np),
	}
	vals := make([]float64, np)
	for i := 0; i < np; i++ {
		// Mild clustering so boundary pixels are populated.
		if rng.Float64() < 0.5 {
			ps.X[i] = 300 + rng.NormFloat64()*150
			ps.Y[i] = 600 + rng.NormFloat64()*150
		} else {
			ps.X[i] = rng.Float64() * 1000
			ps.Y[i] = rng.Float64() * 1000
		}
		ps.X[i] = math.Min(999.9, math.Max(0.1, ps.X[i]))
		ps.Y[i] = math.Min(999.9, math.Max(0.1, ps.Y[i]))
		ps.T[i] = int64(i)
		vals[i] = 1 + rng.Float64()*9
	}
	ps.Attrs = []data.Column{{Name: "v", Values: vals}}
	rs := data.VoronoiRegions("nbhd", bounds, nr, seed+1,
		data.VoronoiOptions{JitterFrac: 0.08})
	return ps, rs
}

func statsExactlyEqual(t *testing.T, got, want *core.Result, context string) {
	t.Helper()
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d vs %d regions", context, len(got.Stats), len(want.Stats))
	}
	for k := range got.Stats {
		if got.Stats[k].Count != want.Stats[k].Count {
			t.Fatalf("%s: region %d count %d, want %d",
				context, k, got.Stats[k].Count, want.Stats[k].Count)
		}
		if math.Abs(got.Stats[k].Sum-want.Stats[k].Sum) >
			1e-6*math.Max(1, math.Abs(want.Stats[k].Sum)) {
			t.Fatalf("%s: region %d sum %v, want %v",
				context, k, got.Stats[k].Sum, want.Stats[k].Sum)
		}
	}
}

// The central correctness property: the accurate (hybrid) raster join is
// exact — it must agree with brute force bit-for-bit on counts, at any
// resolution, including very coarse ones where almost everything is a
// boundary pixel.
func TestAccurateRasterJoinIsExact(t *testing.T) {
	ps, rs := scene(4000, 12, 41)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	want, err := (&index.BruteForce{}).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []int{32, 64, 256, 1024} {
		rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(res))
		got, err := rj.JoinContext(context.Background(), req)
		if err != nil {
			t.Fatalf("res %d: %v", res, err)
		}
		statsExactlyEqual(t, got, want, rj.Name())
	}
}

func TestAccurateRasterJoinExactUnderFilters(t *testing.T) {
	ps, rs := scene(3000, 10, 43)
	req := core.Request{
		Points: ps, Regions: rs, Agg: core.Avg, Attr: "v",
		Filters: []core.Filter{{Attr: "v", Min: 3, Max: 8}},
		Time:    &core.TimeFilter{Start: 200, End: 2500},
	}
	want, err := (&index.BruteForce{}).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(128))
	got, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	statsExactlyEqual(t, got, want, "accurate with filters")
	if want.TotalCount() == 0 {
		t.Fatal("filters swallowed all points; test is vacuous")
	}
}

// Bounded raster join property: a point can only be misassigned when it
// lies within epsilon of the boundary of the region it was (or should have
// been) assigned to. We verify the aggregate consequence: per-region count
// error is bounded by the number of filtered points within epsilon of that
// region's boundary.
func TestBoundedRasterJoinErrorWithinEpsilon(t *testing.T) {
	ps, rs := scene(3000, 8, 47)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	want, err := (&index.BruteForce{}).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{40, 20, 10} {
		rj := core.NewRasterJoin(core.WithEpsilon(eps))
		got, err := rj.JoinContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.PixelSize*math.Sqrt2 > eps+1e-9 {
			t.Fatalf("eps %v: pixel diagonal %v exceeds bound",
				eps, got.PixelSize*math.Sqrt2)
		}
		for k, reg := range rs.Regions {
			diff := got.Stats[k].Count - want.Stats[k].Count
			if diff < 0 {
				diff = -diff
			}
			if diff == 0 {
				continue
			}
			// Count points within eps of this region's boundary.
			near := int64(0)
			for i := 0; i < ps.Len(); i++ {
				p := geom.Point{X: ps.X[i], Y: ps.Y[i]}
				if !reg.Poly.BBox().Expand(eps).Contains(p) {
					continue
				}
				d2 := math.Inf(1)
				reg.Poly.Edges(func(a, b geom.Point) bool {
					if d := geom.SegmentDistSq(p, a, b); d < d2 {
						d2 = d
					}
					return true
				})
				if d2 <= eps*eps {
					near++
				}
			}
			if diff > near {
				t.Errorf("eps %v region %d: |error| %d exceeds %d boundary-near points",
					eps, k, diff, near)
			}
		}
	}
}

// Shrinking epsilon must not increase total absolute error (on the same
// scene): the approximation converges to the exact answer.
func TestApproximateErrorShrinksWithResolution(t *testing.T) {
	ps, rs := scene(5000, 10, 53)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	want, _ := (&index.BruteForce{}).JoinContext(context.Background(), req)

	totalErr := func(res *core.Result) (e int64) {
		for k := range res.Stats {
			d := res.Stats[k].Count - want.Stats[k].Count
			if d < 0 {
				d = -d
			}
			e += d
		}
		return
	}
	coarse, _ := core.NewRasterJoin(core.WithResolution(64)).JoinContext(context.Background(), req)
	fine, _ := core.NewRasterJoin(core.WithResolution(1024)).JoinContext(context.Background(), req)
	ce, fe := totalErr(coarse), totalErr(fine)
	if fe > ce {
		t.Errorf("error grew with resolution: 64px=%d 1024px=%d", ce, fe)
	}
	if fe > int64(ps.Len()/100) {
		t.Errorf("1024px error %d > 1%% of %d points", fe, ps.Len())
	}
}

// Tiling must not change results: a tiny max texture size forcing many
// passes must agree exactly with a single-pass render.
func TestTiledRenderMatchesSinglePass(t *testing.T) {
	ps, rs := scene(2000, 6, 59)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}

	single := core.NewRasterJoin(core.WithResolution(256),
		core.WithDevice(gpu.New(gpu.WithMaxTextureSize(4096))))
	tiled := core.NewRasterJoin(core.WithResolution(256),
		core.WithDevice(gpu.New(gpu.WithMaxTextureSize(64))))

	a, err := single.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tiled.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tiles != 1 {
		t.Fatalf("single-pass tiles = %d", a.Tiles)
	}
	if b.Tiles < 16 {
		t.Fatalf("tiled render tiles = %d, want >= 16", b.Tiles)
	}
	statsExactlyEqual(t, b, a, "tiled vs single (approximate)")

	// Accurate mode under tiling is still exact.
	want, _ := (&index.BruteForce{}).JoinContext(context.Background(), req)
	accTiled := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(256),
		core.WithDevice(gpu.New(gpu.WithMaxTextureSize(64))))
	c, err := accTiled.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	statsExactlyEqual(t, c, want, "tiled accurate vs brute force")
}

// TestTileEdgePointsCountOnce: a point on an edge that canvas tiles share —
// here the left and bottom edges and the lower-left corner of the tile at
// pixel (64, 64) — is counted once, by exactly one tile, in both modes and
// by every joiner that renders under Device.Tiles.
func TestTileEdgePointsCountOnce(t *testing.T) {
	_, rs := scene(10, 6, 59)
	full := sceneTransform(rs, 256)
	edge := full.Sub(64, 64, 64, 64).World
	midX, midY := (edge.MinX+edge.MaxX)/2, (edge.MinY+edge.MaxY)/2
	ps := &data.PointSet{
		Name:  "edges",
		X:     []float64{edge.MinX, midX, edge.MinX},
		Y:     []float64{midY, edge.MinY, edge.MinY},
		T:     []int64{0, 1, 2},
		Attrs: []data.Column{{Name: "v", Values: []float64{1, 2, 4}}},
	}
	for i := range ps.X {
		if !onTileEdge(full, 64, ps.X[i], ps.Y[i]) {
			t.Fatalf("point %d is not on a tile edge", i)
		}
	}
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	want, err := (&index.BruteForce{}).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalCount() != 3 {
		t.Fatalf("brute force places %d of 3 points", want.TotalCount())
	}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		rj := core.NewRasterJoin(core.WithMode(mode),
			core.WithResolution(256), core.WithDevice(gpu.New(gpu.WithMaxTextureSize(64))))
		got, err := rj.JoinContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tiles != 16 {
			t.Fatalf("%s: %d tiles, want 16", rj.Name(), got.Tiles)
		}
		statsExactlyEqual(t, got, want, rj.Name())
		scattered, err := shard.New(rj, 2).JoinContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		statsExactlyEqual(t, scattered, want, rj.Name()+" over 2 shards")
	}
}

func TestRasterJoinParallelDeterminism(t *testing.T) {
	ps, rs := scene(3000, 9, 61)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	one := core.NewRasterJoin(core.WithWorkers(1), core.WithResolution(256))
	many := core.NewRasterJoin(core.WithWorkers(8), core.WithResolution(256))
	a, err := one.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := many.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	statsExactlyEqual(t, b, a, "workers 8 vs 1")
}

func TestRasterJoinEmptyInputs(t *testing.T) {
	_, rs := scene(10, 4, 67)
	empty := &data.PointSet{Name: "empty"}
	rj := core.NewRasterJoin()
	res, err := rj.JoinContext(context.Background(), core.Request{Points: empty, Regions: rs, Agg: core.Count})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCount() != 0 {
		t.Errorf("empty points total = %d", res.TotalCount())
	}
	ps, _ := scene(100, 4, 68)
	res, err = rj.JoinContext(context.Background(), core.Request{Points: ps, Regions: &data.RegionSet{}, Agg: core.Count})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 0 {
		t.Errorf("empty regions stats = %d", len(res.Stats))
	}
}

func TestRasterJoinValidates(t *testing.T) {
	ps, rs := scene(100, 4, 69)
	rj := core.NewRasterJoin()
	if _, err := rj.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "nope"}); err == nil {
		t.Error("invalid request should be rejected")
	}
}

func TestRasterJoinNames(t *testing.T) {
	if got := core.NewRasterJoin().Name(); got != "raster-join-approximate-1024px" {
		t.Errorf("default name = %q", got)
	}
	rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithEpsilon(16))
	if got := rj.Name(); got != "raster-join-accurate-eps16" {
		t.Errorf("bounded accurate name = %q", got)
	}
	if core.Approximate.String() != "approximate" || core.Accurate.String() != "accurate" {
		t.Error("Mode.String wrong")
	}
}

func TestRasterJoinResultMetadata(t *testing.T) {
	ps, rs := scene(500, 4, 71)
	rj := core.NewRasterJoin(core.WithEpsilon(5),
		core.WithDevice(gpu.New(gpu.WithMaxTextureSize(128))))
	res, err := rj.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count})
	if err != nil {
		t.Fatal(err)
	}
	if res.CanvasW < 256 || res.CanvasH < 256 {
		t.Errorf("canvas %dx%d too small for eps=5 over 1000-unit window",
			res.CanvasW, res.CanvasH)
	}
	wantTiles := ((res.CanvasW + 127) / 128) * ((res.CanvasH + 127) / 128)
	if res.Tiles != wantTiles {
		t.Errorf("tiles = %d, want %d", res.Tiles, wantTiles)
	}
	if res.PixelSize <= 0 || res.PixelSize*math.Sqrt2 > 5 {
		t.Errorf("pixel size %v violates eps", res.PixelSize)
	}
	if res.Algorithm == "" {
		t.Error("algorithm metadata missing")
	}
}

// Property test across random scenes: accurate raster join equals brute
// force for every aggregate.
func TestAccurateExactProperty(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		seed := int64(100 + iter*17)
		ps, rs := scene(800+iter*300, 3+iter, seed)
		for _, agg := range []core.Agg{core.Count, core.Sum, core.Avg} {
			req := core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v"}
			want, err := (&index.BruteForce{}).JoinContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			rj := core.NewRasterJoin(core.WithMode(core.Accurate),
				core.WithResolution(64+iter*32))
			got, err := rj.JoinContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			statsExactlyEqual(t, got, want, rj.Name())
		}
	}
}

// Streaming the points in small vertex-buffer batches must not change
// results — the GPU-memory-bound path is pure re-batching — and each batch
// is one point draw, counted once in the request trace.
func TestPointBatchingInvariant(t *testing.T) {
	ps, rs := scene(4000, 8, 211)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	join := func(opts ...core.RJOption) (*core.Result, int64) {
		tr := trace.New("test")
		opts = append(opts, core.WithResolution(256), core.WithMode(core.Accurate))
		res, err := core.NewRasterJoin(opts...).JoinContext(trace.NewContext(context.Background(), tr), req)
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Counters()["batches"]
	}
	a, whole := join()
	b, batched := join(core.WithPointBatch(137))
	statsExactlyEqual(t, b, a, "batched")
	if want := int64((4000 + 136) / 137); whole != 1 || batched != want {
		t.Errorf("batches = %d unbatched, %d batched; want 1 and %d", whole, batched, want)
	}
}
