package geoblocks_test

// The metamorphic proof suite: the geoblocks hybrid (stored interior
// aggregates + exact fringe refinement) must be indistinguishable from the
// full accurate raster join on every aggregate, for any polygon, at any
// pyramid depth. Count/Min/Max are bit-identical (both sides classify
// points with the same even-odd Polygon.Contains, and those folds are
// order-independent); Sum/Avg are compensated on both sides but fold in
// different orders, so they carry an ε bound scaled to the magnitude of
// the data.

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geoblocks"
	"repro/internal/geom"
	"repro/internal/geom/geomtest"
	"repro/internal/gpu"
	"repro/internal/urbane"
)

// buildScene mirrors the white-box generator: uniform wash + two clusters
// + duplicate stacks + exact-boundary points, with a sign-mixed attribute
// "v" and a positive attribute "w".
func buildScene(t testing.TB, n int, seed int64) *data.PointSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{Name: "scene"}
	v := make([]float64, 0, n)
	w := make([]float64, 0, n)
	add := func(x, y float64) {
		ps.X = append(ps.X, x)
		ps.Y = append(ps.Y, y)
		v = append(v, (rng.Float64()-0.5)*200)
		w = append(w, rng.Float64()*60)
	}
	add(0, 0)
	add(1000, 1000)
	for i := 0; i < 6; i++ {
		add(333.125, 666.875)
	}
	for len(ps.X) < n {
		switch rng.Intn(3) {
		case 0:
			add(rng.Float64()*1000, rng.Float64()*1000)
		case 1:
			add(280+rng.NormFloat64()*60, 640+rng.NormFloat64()*60)
		default:
			add(760+rng.NormFloat64()*30, 220+rng.NormFloat64()*30)
		}
	}
	ps.Attrs = []data.Column{{Name: "v", Values: v}, {Name: "w", Values: w}}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	return ps
}

// randomPolygon draws from a family of shapes spanning the cases that
// stress classification differently: convex, star (concave), rectangles
// aligned with cell walls, annuli (holes), and slivers.
func randomPolygon(rng *rand.Rand) geom.Polygon {
	c := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	size := 20 + rng.Float64()*450
	switch rng.Intn(5) {
	case 0:
		return geom.NewPolygon(geomtest.RegularRing(c, size, 3+rng.Intn(10)))
	case 1:
		return geom.NewPolygon(geom.StarRing(c, size, size*(0.25+rng.Float64()*0.5), 4+rng.Intn(6)))
	case 2:
		// Axis-aligned rectangle; with probability 1/2 snapped onto exact
		// cell-wall coordinates (multiples of 1000/2^L) to force ties.
		x0, y0 := c.X, c.Y
		w, h := size, 20+rng.Float64()*450
		if rng.Intn(2) == 0 {
			snap := 1000.0 / float64(int(1)<<uint(3+rng.Intn(4)))
			x0 = math.Round(x0/snap) * snap
			y0 = math.Round(y0/snap) * snap
			w = math.Max(snap, math.Round(w/snap)*snap)
			h = math.Max(snap, math.Round(h/snap)*snap)
		}
		return geom.NewPolygon(geom.RectRing(geom.BBox{MinX: x0, MinY: y0, MaxX: x0 + w, MaxY: y0 + h}))
	case 3:
		return geom.Polygon{
			Outer: geomtest.RegularRing(c, size, 16),
			Holes: []geom.Ring{geomtest.RegularRing(c, size*0.45, 12)},
		}
	default:
		// Sliver: long thin quad at a random angle.
		th := rng.Float64() * math.Pi
		dx, dy := math.Cos(th), math.Sin(th)
		nx, ny := -dy*3, dx*3
		return geom.NewPolygon(geom.Ring{
			{X: c.X - dx*size, Y: c.Y - dy*size},
			{X: c.X + dx*size, Y: c.Y + dy*size},
			{X: c.X + dx*size + nx, Y: c.Y + dy*size + ny},
			{X: c.X - dx*size + nx, Y: c.Y - dy*size + ny},
		})
	}
}

func regions(polys ...geom.Polygon) *data.RegionSet {
	rs := &data.RegionSet{Name: "q"}
	for i, pg := range polys {
		rs.Regions = append(rs.Regions, data.Region{ID: i, Name: "q", Poly: pg})
	}
	return rs
}

var aggCases = []struct {
	agg  core.Agg
	attr string
}{
	{core.Count, ""},
	{core.Sum, "v"},
	{core.Avg, "v"},
	{core.Min, "v"},
	{core.Max, "w"},
}

// sumTol is the ε bound for compensated sums folded in different orders:
// proportional to the number of terms times the largest magnitude either
// side could have accumulated.
func sumTol(count int64, maxAbs float64) float64 {
	return 1e-11*float64(count)*maxAbs + 1e-9
}

func compareResults(t *testing.T, context string, got, want *core.Result, agg core.Agg, maxAbs float64) {
	t.Helper()
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d stats vs %d", context, len(got.Stats), len(want.Stats))
	}
	for k := range got.Stats {
		g, w := got.Stats[k], want.Stats[k]
		if g.Count != w.Count {
			t.Errorf("%s region %d: count %d, want %d", context, k, g.Count, w.Count)
			continue
		}
		switch agg {
		// Only the requested extreme is contractual: the accurate join's
		// min/max strategy tracks just that side, so the other field is
		// not comparable.
		case core.Min:
			if g.Min != w.Min {
				t.Errorf("%s region %d: min %g, want %g", context, k, g.Min, w.Min)
			}
		case core.Max:
			if g.Max != w.Max {
				t.Errorf("%s region %d: max %g, want %g", context, k, g.Max, w.Max)
			}
		case core.Sum, core.Avg:
			if d := math.Abs(g.Sum - w.Sum); d > sumTol(g.Count, maxAbs) {
				t.Errorf("%s region %d: sum %g, want %g (|Δ|=%g > tol %g)",
					context, k, g.Sum, w.Sum, d, sumTol(g.Count, maxAbs))
			}
		}
	}
}

// TestGeoBlocksEquivalence is the headline property test: ≥200 randomized
// (polygon, level, aggregate) cases, each checked cold (first query after
// the store drops) and warm (served from the cached index), against the
// full accurate join. PinHybrid keeps every case on the hybrid: at level 3
// most random polygons are fringe enough for the cost rule to decline.
func TestGeoBlocksEquivalence(t *testing.T) {
	ps := buildScene(t, 6000, 11)
	dev := gpu.New()
	raster := core.NewRasterJoin(core.WithDevice(dev),
		core.WithMode(core.Accurate), core.WithResolution(96))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))

	cases := 0
	for _, lvl := range []int{3, 5, 8} {
		eng := geoblocks.PinHybrid(geoblocks.NewEngine(raster, lvl))
		for i := 0; i < 72; i++ {
			polys := []geom.Polygon{randomPolygon(rng)}
			if i%4 == 0 { // multi-region requests fold several plans per query
				polys = append(polys, randomPolygon(rng))
			}
			ac := aggCases[i%len(aggCases)]
			req := core.Request{Points: ps, Regions: regions(polys...), Agg: ac.agg, Attr: ac.attr}

			got, err := eng.JoinContext(ctx, req)
			if err != nil {
				t.Fatalf("level %d case %d: hybrid: %v", lvl, i, err)
			}
			if !strings.HasPrefix(got.Algorithm, "geoblocks-hybrid") {
				t.Fatalf("level %d case %d: served by %q, not the hybrid", lvl, i, got.Algorithm)
			}
			want, err := raster.JoinContext(ctx, req)
			if err != nil {
				t.Fatalf("level %d case %d: baseline: %v", lvl, i, err)
			}
			name := "L" + string(rune('0'+lvl))
			compareResults(t, name+" cold", got, want, ac.agg, 200)

			// Warm: the index is now cached; the same request must
			// reproduce the cold answer bit-for-bit.
			again, err := eng.JoinContext(ctx, req)
			if err != nil {
				t.Fatalf("level %d case %d: warm: %v", lvl, i, err)
			}
			for k := range got.Stats {
				if again.Stats[k] != got.Stats[k] {
					t.Fatalf("level %d case %d region %d: warm result diverged from cold", lvl, i, k)
				}
			}
			cases++
		}
	}
	if cases < 200 {
		t.Fatalf("only %d randomized cases ran; the suite promises ≥ 200", cases)
	}
}

// TestEquivalenceUnderRingTransforms: classification consumes only the
// polygon's edge set and its even-odd Contains, both invariant under
// rotating the ring's starting vertex and reversing its orientation — so
// the hybrid's answer must be bit-identical under either transform.
func TestEquivalenceUnderRingTransforms(t *testing.T) {
	ps := buildScene(t, 3000, 21)
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(64))
	eng := geoblocks.PinHybrid(geoblocks.NewEngine(raster, 6))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))

	for i := 0; i < 40; i++ {
		pg := randomPolygon(rng)
		ac := aggCases[i%len(aggCases)]
		base, err := eng.JoinContext(ctx, core.Request{
			Points: ps, Regions: regions(pg), Agg: ac.agg, Attr: ac.attr})
		if err != nil {
			t.Fatal(err)
		}

		rot := rng.Intn(len(pg.Outer))
		rotated := geom.Polygon{Outer: append(append(geom.Ring{}, pg.Outer[rot:]...), pg.Outer[:rot]...), Holes: pg.Holes}
		reversed := geom.Polygon{Outer: append(geom.Ring{}, pg.Outer...), Holes: pg.Holes}
		for a, b := 0, len(reversed.Outer)-1; a < b; a, b = a+1, b-1 {
			reversed.Outer[a], reversed.Outer[b] = reversed.Outer[b], reversed.Outer[a]
		}
		for name, tp := range map[string]geom.Polygon{"rotated": rotated, "reversed": reversed} {
			got, err := eng.JoinContext(ctx, core.Request{
				Points: ps, Regions: regions(tp), Agg: ac.agg, Attr: ac.attr})
			if err != nil {
				t.Fatalf("case %d %s: %v", i, name, err)
			}
			if got.Stats[0] != base.Stats[0] {
				t.Errorf("case %d: %s ring changed the answer: %+v vs %+v",
					i, name, got.Stats[0], base.Stats[0])
			}
		}
	}
}

// TestFrameworkGeoBlocksToggle proves the "disabled" leg: a framework
// with the hierarchy enabled and one without must agree on every
// unfiltered polygon query — enabling geoblocks changes the plan, never
// the answer.
func TestFrameworkGeoBlocksToggle(t *testing.T) {
	ps := buildScene(t, 2500, 41)
	mk := func(enable bool) *urbane.Framework {
		f := urbane.New(core.NewRasterJoin(core.WithDevice(gpu.New()),
			core.WithMode(core.Accurate), core.WithResolution(96)))
		// Each framework needs its own PointSet copy: AddPointSet takes
		// ownership, and sharing one across frameworks would also share
		// the geoblocks identity stamp.
		cp := &data.PointSet{Name: ps.Name, X: ps.X, Y: ps.Y, T: ps.T, Attrs: ps.Attrs}
		if err := f.AddPointSet(cp); err != nil {
			t.Fatal(err)
		}
		if enable {
			f.EnableGeoBlocks(6)
		}
		return f
	}
	on, off := mk(true), mk(false)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(51))

	for i := 0; i < 25; i++ {
		pg := randomPolygon(rng)
		ac := aggCases[i%len(aggCases)]
		run := func(f *urbane.Framework) *core.Result {
			t.Helper()
			psf, ok := f.PointSet("scene")
			if !ok {
				t.Fatal("scene point set missing")
			}
			res, err := f.ExecuteContext(ctx, core.Request{
				Points: psf, Regions: regions(pg), Agg: ac.agg, Attr: ac.attr})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got, want := run(on), run(off)
		if !strings.HasPrefix(got.Algorithm, "geoblocks-hybrid") {
			t.Fatalf("case %d: enabled framework served by %q", i, got.Algorithm)
		}
		if strings.HasPrefix(want.Algorithm, "geoblocks-hybrid") {
			t.Fatalf("case %d: disabled framework served by %q", i, want.Algorithm)
		}
		compareResults(t, "toggle", got, want, ac.agg, 200)
	}
}

// TestGeoBlocksSmoke is the CI gate (make geoblocks-smoke): a seeded
// build plus 50 hybrid-vs-full equivalence queries, cheap enough to run
// under -race on every push.
func TestGeoBlocksSmoke(t *testing.T) {
	ps := buildScene(t, 2000, 7)
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(64))
	eng := geoblocks.PinHybrid(geoblocks.NewEngine(raster, 6))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	for i := 0; i < 50; i++ {
		pg := randomPolygon(rng)
		ac := aggCases[i%len(aggCases)]
		req := core.Request{Points: ps, Regions: regions(pg), Agg: ac.agg, Attr: ac.attr}
		got, err := eng.JoinContext(ctx, req)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := raster.JoinContext(ctx, req)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		compareResults(t, "smoke", got, want, ac.agg, 200)
	}
}
