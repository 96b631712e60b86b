package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
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
