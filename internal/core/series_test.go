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

	const bins = 6
	start, end := int64(0), int64(ps.Len())
	series, err := rj.SeriesJoinContext(context.Background(), req, start, end, bins)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Stats) != bins || len(series.BinStarts) != bins {
		t.Fatalf("series shape: %d stats, %d bin starts", len(series.Stats), len(series.BinStarts))
	}
	width := (end - start) / bins
	for b := 0; b < bins; b++ {
		binEnd := series.BinStarts[b] + width
		if b == bins-1 {
			binEnd = end
		}
		perBin := req
		perBin.Time = &core.TimeFilter{Start: series.BinStarts[b], End: binEnd}
		want, err := rj.Join(perBin)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Stats {
			if series.Stats[b][k] != want.Stats[k] {
				t.Fatalf("bin %d region %d: series %+v vs per-bin %+v",
					b, k, series.Stats[b][k], want.Stats[k])
			}
		}
	}
}

// Accurate series must match per-bin accurate joins — i.e. be exact —
// bit-for-bit, since the cached outline machinery replaces per-bin work.
func TestAccurateSeriesJoinIsExact(t *testing.T) {
	ps, rs := scene(3000, 8, 91)
	rj := core.NewRasterJoin(core.WithResolution(128), core.WithMode(core.Accurate))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}

	const bins = 5
	start, end := int64(0), int64(ps.Len())
	series, err := rj.SeriesJoinContext(context.Background(), req, start, end, bins)
	if err != nil {
		t.Fatal(err)
	}
	width := (end - start) / bins
	for b := 0; b < bins; b++ {
		binEnd := series.BinStarts[b] + width
		if b == bins-1 {
			binEnd = end
		}
		perBin := req
		perBin.Time = &core.TimeFilter{Start: series.BinStarts[b], End: binEnd}
		want, err := rj.Join(perBin)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Stats {
			if series.Stats[b][k] != want.Stats[k] {
				t.Fatalf("bin %d region %d: accurate series %+v vs per-bin %+v",
					b, k, series.Stats[b][k], want.Stats[k])
			}
		}
	}
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
	for b := range series.Stats {
		for k := range series.Stats[b] {
			total += series.Stats[b][k].Count
		}
	}
	full, err := rj.Join(req)
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
	for b := range series.Stats {
		for k := range series.Stats[b] {
			ft += series.Stats[b][k].Count
			ut += unfiltered.Stats[b][k].Count
		}
	}
	if ft == 0 || ft >= ut {
		t.Errorf("filtered total %d should be in (0, %d)", ft, ut)
	}
}

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
	noT := &data.PointSet{Name: "noT", X: []float64{1}, Y: []float64{1}}
	if _, err := rj.SeriesJoinContext(context.Background(), core.Request{Points: noT, Regions: rs, Agg: core.Count},
		0, 100, 2); err == nil {
		t.Error("missing timestamps should fail")
	}
	eps := core.NewRasterJoin(core.WithEpsilon(5))
	if _, err := eps.SeriesJoinContext(context.Background(), req, 0, 100, 2); err == nil {
		t.Error("epsilon mode should refuse the fragment cache")
	}
	// Canvas too big for the device.
	big := core.NewRasterJoin(core.WithResolution(512),
		core.WithDevice(gpu.New(gpu.WithMaxTextureSize(128))))
	if _, err := big.SeriesJoinContext(context.Background(), req, 0, 100, 2); err == nil {
		t.Error("oversized cache canvas should fail with advice")
	}
}

func TestSeriesResultValue(t *testing.T) {
	ps, rs := scene(500, 4, 93)
	rj := core.NewRasterJoin(core.WithResolution(64), core.WithWorkers(1))
	series, err := rj.SeriesJoinContext(context.Background(), core.Request{Points: ps, Regions: rs,
		Agg: core.Avg, Attr: "v"}, 0, int64(ps.Len()), 2)
	if err != nil {
		t.Fatal(err)
	}
	for b := range series.Stats {
		for k := range series.Stats[b] {
			want := series.Stats[b][k].Value(core.Avg)
			if got := series.Value(b, k, core.Avg); got != want {
				t.Fatalf("Value(%d,%d) = %v, want %v", b, k, got, want)
			}
		}
	}
}

// requireBinMatchesJoin asserts series bin b is the Result a JoinContext
// over the bin's window returns: stats bit for bit, metadata included.
func requireBinMatchesJoin(t *testing.T, rj *core.RasterJoin, req core.Request, sr *core.SeriesResult, b int, end int64, label string) {
	t.Helper()
	binEnd := end
	if b+1 < len(sr.BinStarts) {
		binEnd = sr.BinStarts[b+1]
	}
	perBin := req
	perBin.Time = &core.TimeFilter{Start: sr.BinStarts[b], End: binEnd}
	want, err := rj.JoinContext(context.Background(), perBin)
	if err != nil {
		t.Fatal(err)
	}
	got := sr.Bin(b)
	if got.Algorithm != want.Algorithm || got.CanvasW != want.CanvasW || got.CanvasH != want.CanvasH ||
		got.Tiles != want.Tiles || math.Float64bits(got.PixelSize) != math.Float64bits(want.PixelSize) {
		t.Fatalf("%s bin %d: metadata %+v, want %+v", label, b, *got, *want)
	}
	statsBitIdentical(t, got.Stats, want.Stats, fmt.Sprintf("%s bin %d", label, b))
}

// TestSeriesSparseCases: resolveBin visits only touched pixels, so the
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
			}{{core.Count, ""}, {core.Sum, "v"}, {core.Avg, "v"}} {
				req := core.Request{Points: ps, Regions: rs, Agg: ac.agg, Attr: ac.attr,
					Filters: []core.Filter{{Attr: "w", Min: 5, Max: 55}}}
				// Bins of 125 s over [-500, 1500): four empty, two between the
				// squares only, ten over the whole canvas.
				const start, end, bins = -500, 1500, 16
				sr, err := rj.SeriesJoinContext(context.Background(), req, start, end, bins)
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < bins; b++ {
					requireBinMatchesJoin(t, rj, req, sr, b, end,
						fmt.Sprintf("%s/%v/%v", rs.Name, mode, ac.agg))
				}
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
	sr, err := rj.SeriesJoinContext(context.Background(), req, 0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sr.CanvasW != 0 || sr.Tiles != 0 {
		t.Fatalf("empty series metadata %+v", *sr.Bin(0))
	}
	for b := range sr.Stats {
		requireBinMatchesJoin(t, rj, req, sr, b, 100, "empty")
	}
}

// FuzzSeriesMatchesPerBin: for random bins, aggregates, filters, modes,
// time orders and layers of overlapping rings, every series bin equals a
// JoinContext over its window bit for bit, metadata included.
func FuzzSeriesMatchesPerBin(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), false, false, false, uint8(3))
	f.Add(int64(2), uint8(12), uint8(1), true, true, false, uint8(5))
	f.Add(int64(3), uint8(1), uint8(2), true, false, true, uint8(1))
	f.Add(int64(4), uint8(9), uint8(1), false, true, true, uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, bins, aggSel uint8, accurate, filter, unsorted bool, rings uint8) {
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
		rj := core.NewRasterJoin(core.WithResolution(16+rng.Intn(80)), core.WithMode(mode))
		req := core.Request{Points: ps, Regions: rs}
		switch aggSel % 3 {
		case 0:
			req.Agg = core.Count
		case 1:
			req.Agg, req.Attr = core.Sum, "v"
		default:
			req.Agg, req.Attr = core.Avg, "v"
		}
		if filter {
			lo := rng.Float64() * 40
			req.Filters = []core.Filter{{Attr: "w", Min: lo, Max: lo + 5 + rng.Float64()*30}}
		}
		nb := 1 + int(bins%16)
		start := rng.Int63n(1200) - 100
		end := start + 1 + rng.Int63n(1200)
		sr, err := rj.SeriesJoinContext(context.Background(), req, start, end, nb)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < nb; b++ {
			requireBinMatchesJoin(t, rj, req, sr, b, end, "fuzz")
		}
	})
}
