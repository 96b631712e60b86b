package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/gpu"
)

func TestSeriesJoinMatchesPerBinJoins(t *testing.T) {
	ps, rs := scene(4000, 10, 81)
	rj := core.NewRasterJoin(core.WithResolution(256))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	requireSeriesMatchesPerBin(t, rj, req, 0, int64(ps.Len()), 6, "approximate")
}

// Accurate series must match per-bin accurate joins — i.e. be exact —
// bit-for-bit, since the cached outline machinery replaces per-bin work.
func TestAccurateSeriesJoinIsExact(t *testing.T) {
	ps, rs := scene(3000, 8, 91)
	rj := core.NewRasterJoin(core.WithResolution(128), core.WithMode(core.Accurate))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	requireSeriesMatchesPerBin(t, rj, req, 0, int64(ps.Len()), 5, "accurate")
}

func TestSeriesJoinUnsortedTimes(t *testing.T) {
	ps, rs := scene(2000, 6, 83)
	// Scramble time order; the series must still match per-bin joins.
	for i := 0; i < ps.Len()-1; i += 2 {
		ps.T[i], ps.T[i+1] = ps.T[i+1], ps.T[i]
	}
	rj := core.NewRasterJoin(core.WithResolution(128))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	series, err := rj.SeriesJoinContext(context.Background(), req, 0, int64(ps.Len()), 4)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, bin := range series {
		total += bin.TotalCount()
	}
	full, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if total != full.TotalCount() {
		t.Errorf("series total %d != full join total %d", total, full.TotalCount())
	}
}

func TestSeriesJoinWithFilters(t *testing.T) {
	ps, rs := scene(3000, 8, 85)
	rj := core.NewRasterJoin(core.WithResolution(128))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count,
		Filters: []core.Filter{{Attr: "v", Min: 2, Max: 7}}}
	series, err := rj.SeriesJoinContext(context.Background(), req, 0, int64(ps.Len()), 3)
	if err != nil {
		t.Fatal(err)
	}
	unfiltered, err := rj.SeriesJoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count},
		0, int64(ps.Len()), 3)
	if err != nil {
		t.Fatal(err)
	}
	var ft, ut int64
	for b := range series {
		ft += series[b].TotalCount()
		ut += unfiltered[b].TotalCount()
	}
	if ft == 0 || ft >= ut {
		t.Errorf("filtered total %d should be in (0, %d)", ft, ut)
	}
}

// TestSeriesJoinErrors: malformed series fail; the ε mode and a canvas
// larger than the device, which run as several tiles, are served and match
// per-bin joins.
func TestSeriesJoinErrors(t *testing.T) {
	ps, rs := scene(100, 4, 87)
	rj := core.NewRasterJoin(core.WithResolution(64))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	if _, err := rj.SeriesJoinContext(context.Background(), req, 0, 100, 0); err == nil {
		t.Error("zero bins should fail")
	}
	if _, err := rj.SeriesJoinContext(context.Background(), req, 100, 100, 2); err == nil {
		t.Error("empty range should fail")
	}
	// Five bins over three seconds would put bins 3 and 4 past the range.
	if _, err := rj.SeriesJoinContext(context.Background(), req, 10, 13, 5); err == nil {
		t.Error("more bins than seconds in the range should fail")
	}
	noT := &data.PointSet{Name: "noT", X: []float64{1}, Y: []float64{1}}
	if _, err := rj.SeriesJoinContext(context.Background(), core.Request{Points: noT, Regions: rs, Agg: core.Count},
		0, 100, 2); err == nil {
		t.Error("missing timestamps should fail")
	}
	eps := core.NewRasterJoin(core.WithEpsilon(5))
	requireSeriesMatchesPerBin(t, eps, req, 0, 100, 2, "epsilon")
	// A canvas too big for the device runs as 16 tiles.
	big := core.NewRasterJoin(core.WithResolution(512),
		core.WithDevice(gpu.New(gpu.WithMaxTextureSize(128))))
	if sr := requireSeriesMatchesPerBin(t, big, req, 0, 100, 2, "oversized"); sr[0].Tiles != 16 {
		t.Fatalf("oversized canvas ran as %d tiles, want 16", sr[0].Tiles)
	}
}

// TestSeriesResultValue: an AVG series carries the sums and counts of the
// SUM and COUNT series over the same bins, so each bin's Value is their
// quotient.
func TestSeriesResultValue(t *testing.T) {
	ps, rs := scene(500, 4, 93)
	rj := core.NewRasterJoin(core.WithResolution(64), core.WithWorkers(1))
	series := func(agg core.Agg, attr string) []*core.Result {
		sr, err := rj.SeriesJoinContext(context.Background(), core.Request{Points: ps, Regions: rs,
			Agg: agg, Attr: attr}, 0, int64(ps.Len()), 2)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	avg, sum, count := series(core.Avg, "v"), series(core.Sum, "v"), series(core.Count, "")
	for b := range avg {
		for k := range avg[b].Stats {
			want := 0.0
			if n := count[b].Value(k, core.Count); n > 0 {
				want = sum[b].Value(k, core.Sum) / n
			}
			if got := avg[b].Value(k, core.Avg); got != want {
				t.Fatalf("bin %d region %d: AVG %v, want %v", b, k, got, want)
			}
		}
	}
}

// binWindow is series bin b's time window: bins of (end-start)/bins, at
// least 1, the last one ending at end.
func binWindow(start, end int64, bins, b int) *core.TimeFilter {
	width := max((end-start)/int64(bins), 1)
	tf := &core.TimeFilter{Start: start + int64(b)*width, End: start + int64(b+1)*width}
	if b == bins-1 {
		tf.End = end
	}
	return tf
}

// requireSeriesMatchesPerBin runs the series and asserts every bin is the
// Result a JoinContext over the bin's window returns: stats bit for bit,
// metadata included. It returns the series.
func requireSeriesMatchesPerBin(t *testing.T, rj *core.RasterJoin, req core.Request, start, end int64, bins int, label string) []*core.Result {
	t.Helper()
	sr, err := rj.SeriesJoinContext(context.Background(), req, start, end, bins)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr) != bins {
		t.Fatalf("%s: %d bins, want %d", label, len(sr), bins)
	}
	for b, got := range sr {
		perBin := req
		perBin.Time = binWindow(start, end, bins, b)
		want, err := rj.JoinContext(context.Background(), perBin)
		if err != nil {
			t.Fatal(err)
		}
		if got.Algorithm != want.Algorithm || got.CanvasW != want.CanvasW || got.CanvasH != want.CanvasH ||
			got.Tiles != want.Tiles || math.Float64bits(got.PixelSize) != math.Float64bits(want.PixelSize) {
			t.Fatalf("%s bin %d: metadata %+v, want %+v", label, b, *got, *want)
		}
		statsBitIdentical(t, got.Stats, want.Stats, fmt.Sprintf("%s bin %d", label, b))
	}
	return sr
}

// TestSeriesSparseCases: resolve visits only touched pixels, so the
// cases a full-canvas pass handles for free are pinned against per-bin
// joins: bins with no points, bins whose points all fall between the
// regions, and a layer of overlapping regions (a pixel in several
// interiors, a region inside another, a hole), in both modes.
func TestSeriesSparseCases(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ps := &data.PointSet{Name: "sparse"}
	var v, w []float64
	add := func(x, y float64, ts int64) {
		ps.X, ps.Y, ps.T = append(ps.X, x), append(ps.Y, y), append(ps.T, ts)
		v = append(v, rng.Float64()*10)
		w = append(w, rng.Float64()*60)
	}
	for i := 0; i < 3000; i++ {
		ts := rng.Int63n(1000)
		switch {
		case ts < 250: // between the two squares only
			add(45+rng.Float64()*10, rng.Float64()*100, ts)
		default:
			add(rng.Float64()*100, rng.Float64()*100, ts)
		}
	}
	ps.Attrs = []data.Column{{Name: "v", Values: v}, {Name: "w", Values: w}}
	ps.SortByTime()

	square := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.NewPolygon(geom.RectRing(geom.BBox{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}))
	}
	disjoint := &data.RegionSet{Name: "disjoint", Regions: []data.Region{
		{ID: 0, Poly: square(0, 0, 40, 100)},
		{ID: 1, Poly: square(60, 0, 100, 100)},
	}}
	overlapping := &data.RegionSet{Name: "overlapping", Regions: []data.Region{
		{ID: 0, Poly: square(0, 0, 100, 100)},
		{ID: 1, Poly: geom.NewPolygon(geom.RegularRing(geom.Point{X: 40, Y: 50}, 30, 7))},
		{ID: 2, Poly: geom.NewPolygon(geom.RegularRing(geom.Point{X: 60, Y: 45}, 28, 11))},
		{ID: 3, Poly: geom.Polygon{
			Outer: geom.RegularRing(geom.Point{X: 50, Y: 50}, 45, 16),
			Holes: []geom.Ring{geom.RegularRing(geom.Point{X: 50, Y: 50}, 15, 9)},
		}},
		{ID: 4, Poly: square(20, 20, 35, 35)},
	}}
	for _, rs := range []*data.RegionSet{disjoint, overlapping} {
		for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
			rj := core.NewRasterJoin(core.WithResolution(96), core.WithMode(mode))
			for _, ac := range []struct {
				agg  core.Agg
				attr string
			}{{core.Count, ""}, {core.Sum, "v"}, {core.Avg, "v"}, {core.Min, "v"}, {core.Max, "v"}} {
				req := core.Request{Points: ps, Regions: rs, Agg: ac.agg, Attr: ac.attr,
					Filters: []core.Filter{{Attr: "w", Min: 5, Max: 55}}}
				// Bins of 125 s over [-500, 1500): four empty, two between the
				// squares only, ten over the whole canvas.
				requireSeriesMatchesPerBin(t, rj, req, -500, 1500, 16,
					fmt.Sprintf("%s/%v/%v", rs.Name, mode, ac.agg))
			}
		}
	}
}

// TestSeriesEmptyDataSet: with no points the series reports what a join
// does — zero canvas dimensions, no tiles — for every bin.
func TestSeriesEmptyDataSet(t *testing.T) {
	_, rs := scene(10, 4, 95)
	empty := &data.PointSet{Name: "empty", X: []float64{}, Y: []float64{}, T: []int64{}}
	rj := core.NewRasterJoin(core.WithResolution(64), core.WithMode(core.Accurate))
	req := core.Request{Points: empty, Regions: rs, Agg: core.Count}
	sr := requireSeriesMatchesPerBin(t, rj, req, 0, 100, 4, "empty")
	if sr[0].CanvasW != 0 || sr[0].Tiles != 0 {
		t.Fatalf("empty series metadata %+v", *sr[0])
	}
}

// FuzzSeriesMatchesPerBin: for random bins, all five aggregates, filters,
// modes, time orders, layers of overlapping rings and canvases — resolution
// driven, the ε mode, and a device whose small texture limit tiles the
// canvas — every series bin equals a JoinContext over its window bit for
// bit, metadata included.
func FuzzSeriesMatchesPerBin(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), false, false, false, uint8(3), uint8(0))
	f.Add(int64(2), uint8(12), uint8(1), true, true, false, uint8(5), uint8(0))
	f.Add(int64(3), uint8(1), uint8(2), true, false, true, uint8(1), uint8(0))
	f.Add(int64(4), uint8(9), uint8(1), false, true, true, uint8(6), uint8(0))
	f.Add(int64(5), uint8(7), uint8(3), true, true, false, uint8(4), uint8(1))
	f.Add(int64(6), uint8(10), uint8(4), false, false, true, uint8(5), uint8(2))
	f.Add(int64(7), uint8(5), uint8(3), false, true, true, uint8(3), uint8(2))
	f.Add(int64(8), uint8(8), uint8(4), true, false, false, uint8(6), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, bins, aggSel uint8, accurate, filter, unsorted bool, rings, canvas uint8) {
		rng := rand.New(rand.NewSource(seed))
		ps := &data.PointSet{Name: "fuzz"}
		n := 200 + rng.Intn(800)
		v, w := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			ps.X = append(ps.X, rng.Float64()*120-10)
			ps.Y = append(ps.Y, rng.Float64()*120-10)
			ps.T = append(ps.T, rng.Int63n(1000))
			v[i] = rng.NormFloat64() * 50
			if rng.Intn(40) == 0 {
				v[i] = math.NaN()
			}
			w[i] = rng.Float64() * 60
		}
		ps.Attrs = []data.Column{{Name: "v", Values: v}, {Name: "w", Values: w}}
		if !unsorted {
			ps.SortByTime()
		}
		rs := &data.RegionSet{Name: "rings"}
		for k := 0; k < 1+int(rings%7); k++ {
			c := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			r := 5 + rng.Float64()*45
			pg := geom.NewPolygon(geom.RegularRing(c, r, 3+rng.Intn(10)))
			if rng.Intn(3) == 0 {
				pg.Holes = []geom.Ring{geom.RegularRing(c, r*(0.2+0.5*rng.Float64()), 3+rng.Intn(8))}
			}
			rs.Regions = append(rs.Regions, data.Region{ID: k, Poly: pg})
		}
		mode := core.Approximate
		if accurate {
			mode = core.Accurate
		}
		opts := []core.RJOption{core.WithResolution(16 + rng.Intn(80)), core.WithMode(mode)}
		req := core.Request{Points: ps, Regions: rs}
		req.Agg = []core.Agg{core.Count, core.Sum, core.Avg, core.Min, core.Max}[aggSel%5]
		if req.Agg.NeedsAttr() {
			req.Attr = "v"
		}
		if filter {
			lo := rng.Float64() * 40
			req.Filters = []core.Filter{{Attr: "w", Min: lo, Max: lo + 5 + rng.Float64()*30}}
		}
		nb := 1 + int(bins%16)
		start := rng.Int63n(1200) - 100
		end := start + 1 + rng.Int63n(1200)
		switch canvas % 3 {
		case 1:
			opts = append(opts, core.WithEpsilon(0.5+rng.Float64()*8))
		case 2:
			opts = append(opts, core.WithDevice(gpu.New(gpu.WithMaxTextureSize(8+rng.Intn(40)))))
		}
		requireSeriesMatchesPerBin(t, core.NewRasterJoin(opts...), req, start, end, nb, "fuzz")
	})
}
