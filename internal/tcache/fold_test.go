package tcache_test

// Property suite for the slab fold's determinism contract: a fold of
// cached slab partials is bit-identical to a cold fold of the same window;
// versus the one-shot raster join over the whole window, COUNT/MIN/MAX are
// bit-identical and SUM/AVG carry the documented ε bound; a single-slab
// window is bit-identical to the legacy path in every field. Randomized
// over windows, granularities, aggregates, filters, NaN attributes, empty
// slabs, and points pinned exactly onto slab boundaries.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/tcache"
)

const sceneSpan = int64(48 * 3600) // timestamps cover two days

// buildTemporalScene generates points over [0,1000]² with timestamps over
// [0, sceneSpan): a uniform wash plus two clusters, ~20% of timestamps
// snapped onto multiples of 1800 so edges sit exactly on slab boundaries
// at every granularity under test, and ~2% NaN values in attribute "v".
func buildTemporalScene(t testing.TB, n int, seed int64) *data.PointSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{Name: "temporal"}
	v := make([]float64, 0, n)
	w := make([]float64, 0, n)
	for len(ps.X) < n {
		var x, y float64
		switch rng.Intn(3) {
		case 0:
			x, y = rng.Float64()*1000, rng.Float64()*1000
		case 1:
			x, y = 280+rng.NormFloat64()*60, 640+rng.NormFloat64()*60
		default:
			x, y = 760+rng.NormFloat64()*30, 220+rng.NormFloat64()*30
		}
		ts := rng.Int63n(sceneSpan)
		if rng.Intn(5) == 0 {
			ts = (ts / 1800) * 1800 // exactly on a slab wall
		}
		val := (rng.Float64() - 0.5) * 200
		if rng.Intn(50) == 0 {
			val = math.NaN()
		}
		ps.X = append(ps.X, x)
		ps.Y = append(ps.Y, y)
		ps.T = append(ps.T, ts)
		v = append(v, val)
		w = append(w, rng.Float64()*60)
	}
	ps.Attrs = []data.Column{{Name: "v", Values: v}, {Name: "w", Values: w}}
	ps.SortByTime()
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	return ps
}

// queryRegions builds a small multi-region layer mixing convex rings,
// cell-aligned rectangles, and a ring with a hole.
func queryRegions(rng *rand.Rand) *data.RegionSet {
	rs := &data.RegionSet{Name: "q"}
	polys := []geom.Polygon{
		geom.NewPolygon(geom.RegularRing(
			geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			50+rng.Float64()*400, 3+rng.Intn(9))),
		geom.NewPolygon(geom.RectRing(geom.BBox{
			MinX: rng.Float64() * 500, MinY: rng.Float64() * 500,
			MaxX: 500 + rng.Float64()*500, MaxY: 500 + rng.Float64()*500})),
		{
			Outer: geom.RegularRing(geom.Point{X: 400, Y: 500}, 300, 16),
			Holes: []geom.Ring{geom.RegularRing(geom.Point{X: 400, Y: 500}, 140, 12)},
		},
	}
	for i, pg := range polys {
		rs.Regions = append(rs.Regions, data.Region{ID: i, Name: "q", Poly: pg})
	}
	return rs
}

var foldAggCases = []struct {
	agg  core.Agg
	attr string
}{
	{core.Count, ""},
	{core.Sum, "v"},
	{core.Avg, "v"},
	{core.Min, "v"},
	{core.Max, "w"},
}

// bitsEq is bit-level float equality with all NaN payloads unified.
func bitsEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// sumTol is the ε bound for compensated sums folded in different orders.
func sumTol(count int64, maxAbs float64) float64 {
	return 1e-11*float64(count)*maxAbs + 1e-9
}

// requireBitIdentical asserts two results match in every field, bit for
// bit — the warm-vs-cold and single-slab contracts.
func requireBitIdentical(t *testing.T, context string, got, want *core.Result) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.CanvasW != want.CanvasW ||
		got.CanvasH != want.CanvasH || got.Tiles != want.Tiles ||
		!bitsEq(got.PixelSize, want.PixelSize) {
		t.Fatalf("%s: metadata diverged: %+v vs %+v", context, got, want)
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d regions vs %d", context, len(got.Stats), len(want.Stats))
	}
	for r := range got.Stats {
		g, w := got.Stats[r], want.Stats[r]
		if g.Count != w.Count || !bitsEq(g.Sum, w.Sum) || !bitsEq(g.Min, w.Min) || !bitsEq(g.Max, w.Max) {
			t.Fatalf("%s: region %d: %+v vs %+v", context, r, g, w)
		}
	}
}

// requireEquivalent asserts the fold matches the one-shot join under the
// documented contract, which — like the geoblocks suite — only constrains
// the fields the aggregate actually requests: counts always (bit-exact),
// the requested min/max side (bit-exact; the other side is max-of-pixel-
// mins, a quantity that does not decompose across slabs and never reaches
// a response), and sums within ε for Sum/Avg.
func requireEquivalent(t *testing.T, context string, got, want *core.Result, agg core.Agg, maxAbs float64) {
	t.Helper()
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d regions vs %d", context, len(got.Stats), len(want.Stats))
	}
	for r := range got.Stats {
		g, w := got.Stats[r], want.Stats[r]
		if g.Count != w.Count {
			t.Fatalf("%s: region %d count %d vs %d", context, r, g.Count, w.Count)
		}
		switch agg {
		case core.Min:
			if !bitsEq(g.Min, w.Min) {
				t.Fatalf("%s: region %d min %v vs %v", context, r, g.Min, w.Min)
			}
		case core.Max:
			if !bitsEq(g.Max, w.Max) {
				t.Fatalf("%s: region %d max %v vs %v", context, r, g.Max, w.Max)
			}
		case core.Sum, core.Avg:
			switch {
			case math.IsNaN(w.Sum):
				if !math.IsNaN(g.Sum) {
					t.Fatalf("%s: region %d sum %v, want NaN", context, r, g.Sum)
				}
			case math.Abs(g.Sum-w.Sum) > sumTol(w.Count, maxAbs):
				t.Fatalf("%s: region %d sum %v vs %v (Δ %g > tol %g)",
					context, r, g.Sum, w.Sum, math.Abs(g.Sum-w.Sum), sumTol(w.Count, maxAbs))
			}
		}
	}
}

// TestFoldEquivalence is the randomized property: for every granularity
// and 60 random slab-aligned windows — including windows hanging off both
// ends of the data (empty slabs) — the fold agrees with the one-shot join,
// a second (fully warm) fold is bit-identical to the first, and a fresh
// joiner's cold fold is bit-identical to the warm one.
func TestFoldEquivalence(t *testing.T) {
	ps := buildTemporalScene(t, 4000, 2009)
	ctx := context.Background()
	for _, gran := range []int64{1800, 3600, 7200} {
		rng := rand.New(rand.NewSource(gran))
		rs := queryRegions(rng)
		raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(128))
		warmJ := tcache.New(raster, gran, 0, 0)
		for i := 0; i < 60; i++ {
			startSlab := int64(rng.Intn(54)) - 2 // windows may start before t=0
			width := int64(1 + rng.Intn(12))
			ac := foldAggCases[i%len(foldAggCases)]
			req := core.Request{
				Points: ps, Regions: rs, Agg: ac.agg, Attr: ac.attr,
				Time: &core.TimeFilter{Start: startSlab * gran, End: (startSlab + width) * gran},
			}
			if i%3 == 0 {
				req.Filters = []core.Filter{{Attr: "w", Min: 10, Max: 50}}
			}

			first, err := warmJ.JoinContext(ctx, req)
			if err != nil {
				t.Fatalf("gran %d case %d: fold: %v", gran, i, err)
			}
			warm, err := warmJ.JoinContext(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, "warm-vs-first", first, warm)

			coldJ := tcache.New(raster, gran, 0, 0)
			cold, err := coldJ.JoinContext(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, "cold-vs-warm", cold, warm)

			oneShot, err := raster.JoinContext(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			requireEquivalent(t, "fold-vs-oneshot", warm, oneShot, ac.agg, 200)
		}
		if warmJ.SlabsReused() == 0 || warmJ.SlabsRecomputed() == 0 {
			t.Fatalf("gran %d: counters did not move: reused=%d recomputed=%d",
				gran, warmJ.SlabsReused(), warmJ.SlabsRecomputed())
		}
	}
}

// TestSingleSlabBitIdentical: a window of exactly one slab folds one
// partial through a single-term compensated sum — the response must be
// byte-for-byte the legacy path's, metadata included.
func TestSingleSlabBitIdentical(t *testing.T) {
	ps := buildTemporalScene(t, 3000, 7)
	rng := rand.New(rand.NewSource(11))
	rs := queryRegions(rng)
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(128))
	j := tcache.New(raster, 3600, 0, 0)
	ctx := context.Background()
	for i, ac := range foldAggCases {
		req := core.Request{
			Points: ps, Regions: rs, Agg: ac.agg, Attr: ac.attr,
			Time: &core.TimeFilter{Start: int64(i) * 3600, End: int64(i+1) * 3600},
		}
		folded, err := j.JoinContext(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := raster.JoinContext(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, ac.agg.String(), folded, direct)
	}
}

// TestCanServeRouting: requests the slab fold cannot decompose delegate to
// the wrapped joiner without touching the slab machinery.
func TestCanServeRouting(t *testing.T) {
	ps := buildTemporalScene(t, 500, 3)
	rng := rand.New(rand.NewSource(5))
	rs := queryRegions(rng)
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(64))
	j := tcache.New(raster, 3600, 0, 4)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		time *core.TimeFilter
	}{
		{"no_window", nil},
		{"misaligned", &core.TimeFilter{Start: 7, End: 3600}},
		{"too_many_slabs", &core.TimeFilter{Start: 0, End: 5 * 3600}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := core.Request{Points: ps, Regions: rs, Agg: core.Count, Time: tc.time}
			if err := j.CanServe(req); err == nil {
				t.Fatal("CanServe accepted an undecomposable request")
			}
			before := j.SlabsRecomputed()
			res, err := j.JoinContext(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := raster.JoinContext(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, tc.name, res, direct)
			if got := j.SlabsRecomputed(); got != before {
				t.Fatalf("delegated request computed %d slabs", got-before)
			}
		})
	}
}
