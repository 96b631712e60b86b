package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
)

// Accurate raster join MIN/MAX must equal brute force exactly: min/max are
// assembled from the MIN/MAX blend textures for interior pixels plus exact
// boundary resolution.
func TestAccurateMinMaxIsExact(t *testing.T) {
	ps, rs := scene(4000, 10, 501)
	for _, agg := range []core.Agg{core.Min, core.Max} {
		req := core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v"}
		want, err := (&index.BruteForce{}).Join(req)
		if err != nil {
			t.Fatal(err)
		}
		rj := core.NewRasterJoin(core.WithResolution(128), core.WithMode(core.Accurate))
		got, err := rj.Join(req)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		for k := range want.Stats {
			if got.Stats[k].Count != want.Stats[k].Count {
				t.Fatalf("%v region %d: count %d vs %d",
					agg, k, got.Stats[k].Count, want.Stats[k].Count)
			}
			g, w := got.Value(k, agg), want.Value(k, agg)
			if math.Abs(g-w) > 1e-12 {
				t.Fatalf("%v region %d: %v vs %v", agg, k, g, w)
			}
		}
	}
}

// Approximate MIN can only go lower or equal than exact when a foreign
// boundary point is misassigned in; it can also miss the true min. Sanity:
// for a region whose interior carries the extreme values, high resolutions
// converge to exact.
func TestApproximateMinMaxConverges(t *testing.T) {
	ps, rs := scene(5000, 6, 503)
	for _, agg := range []core.Agg{core.Min, core.Max} {
		req := core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v"}
		want, err := (&index.BruteForce{}).Join(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.NewRasterJoin(core.WithResolution(2048)).Join(req)
		if err != nil {
			t.Fatal(err)
		}
		mismatches := 0
		for k := range want.Stats {
			if math.Abs(got.Value(k, agg)-want.Value(k, agg)) > 1e-9 {
				mismatches++
			}
		}
		if mismatches > len(want.Stats)/3 {
			t.Errorf("%v at 2048px: %d/%d regions off", agg, mismatches, len(want.Stats))
		}
	}
}

func TestMinMaxWithFilters(t *testing.T) {
	ps, rs := scene(3000, 8, 505)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Max, Attr: "v",
		Filters: []core.Filter{{Attr: "v", Min: 0, Max: 5}}}
	rj := core.NewRasterJoin(core.WithResolution(256), core.WithMode(core.Accurate))
	got, err := rj.Join(req)
	if err != nil {
		t.Fatal(err)
	}
	// The filter caps the observable maximum below 5.
	for k := range got.Stats {
		if v := got.Value(k, core.Max); v >= 5 {
			t.Fatalf("region %d max %v >= filter cap", k, v)
		}
	}
	want, _ := (&index.BruteForce{}).Join(req)
	for k := range want.Stats {
		if math.Abs(got.Value(k, core.Max)-want.Value(k, core.Max)) > 1e-12 {
			t.Fatalf("region %d: %v vs %v", k, got.Value(k, core.Max), want.Value(k, core.Max))
		}
	}
}

func TestMinMaxValidation(t *testing.T) {
	ps, rs := scene(100, 4, 507)
	rj := core.NewRasterJoin(core.WithResolution(64))
	// MIN needs an attribute.
	if _, err := rj.Join(core.Request{Points: ps, Regions: rs, Agg: core.Min}); err == nil {
		t.Error("MIN without attribute should fail validation")
	}
	// So does a MIN series; with its attribute it is served.
	if _, err := rj.SeriesJoinContext(context.Background(), core.Request{Points: ps, Regions: rs,
		Agg: core.Min}, 0, 100, 2); err == nil {
		t.Error("series MIN without attribute should fail validation")
	}
	if _, err := rj.SeriesJoinContext(context.Background(), core.Request{Points: ps, Regions: rs,
		Agg: core.Min, Attr: "v"}, 0, 100, 2); err != nil {
		t.Errorf("series MIN: %v", err)
	}
}

func TestRegionStatObserveMerge(t *testing.T) {
	var a core.RegionStat
	a.Observe(5)
	a.Observe(2)
	a.Observe(9)
	if a.Count != 3 || a.Sum != 16 || a.Min != 2 || a.Max != 9 {
		t.Fatalf("after observes: %+v", a)
	}
	var b core.RegionStat
	b.Observe(1)
	a.Merge(b)
	if a.Count != 4 || a.Min != 1 || a.Max != 9 {
		t.Fatalf("after merge: %+v", a)
	}
	// Merging an empty stat is a no-op; merging into empty copies.
	var empty core.RegionStat
	a.Merge(empty)
	if a.Count != 4 {
		t.Error("merging empty changed the stat")
	}
	var c core.RegionStat
	c.Merge(a)
	if c != a {
		t.Error("merge into empty should copy")
	}
	// Value dispatch.
	if a.Value(core.Min) != 1 || a.Value(core.Max) != 9 || a.Value(core.Avg) != 17.0/4 {
		t.Errorf("values: %v %v %v", a.Value(core.Min), a.Value(core.Max), a.Value(core.Avg))
	}
	if empty.Value(core.Min) != 0 || empty.Value(core.Max) != 0 {
		t.Error("empty min/max should be 0")
	}
}
