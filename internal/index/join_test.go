package index

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// testScene builds a point set plus a jittered Voronoi region layer.
func testScene(np, nr int, seed int64) (*data.PointSet, *data.RegionSet) {
	ps := randomPoints(np, seed, unitBounds())
	rs := data.VoronoiRegions("nbhd", unitBounds(), nr, seed+1,
		data.VoronoiOptions{JitterFrac: 0.08})
	return ps, rs
}

func statsEqual(t *testing.T, a, b *core.Result, context string) {
	t.Helper()
	if len(a.Stats) != len(b.Stats) {
		t.Fatalf("%s: stat lengths %d vs %d", context, len(a.Stats), len(b.Stats))
	}
	for k := range a.Stats {
		if a.Stats[k].Count != b.Stats[k].Count {
			t.Fatalf("%s: region %d count %d vs %d",
				context, k, a.Stats[k].Count, b.Stats[k].Count)
		}
		if math.Abs(a.Stats[k].Sum-b.Stats[k].Sum) > 1e-6*math.Max(1, math.Abs(a.Stats[k].Sum)) {
			t.Fatalf("%s: region %d sum %v vs %v",
				context, k, a.Stats[k].Sum, b.Stats[k].Sum)
		}
	}
}

func TestAllIndexJoinsMatchBruteForce(t *testing.T) {
	ps, rs := testScene(5000, 25, 11)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}

	want, err := (&BruteForce{}).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	joiners := []core.Joiner{&GridJoin{Side: 32}, &RTreeJoin{}}
	for _, j := range joiners {
		got, err := j.JoinContext(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", j.Name(), err)
		}
		statsEqual(t, got, want, j.Name())
		if got.Algorithm != j.Name() {
			t.Errorf("%s: result algorithm = %q", j.Name(), got.Algorithm)
		}
	}
}

func TestJoinsWithFiltersMatch(t *testing.T) {
	ps, rs := testScene(4000, 16, 13)
	req := core.Request{
		Points: ps, Regions: rs, Agg: core.Count,
		Filters: []core.Filter{{Attr: "v", Min: 2, Max: 7}},
		Time:    &core.TimeFilter{Start: 500, End: 3000},
	}
	want, err := (&BruteForce{}).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []core.Joiner{&GridJoin{}, &RTreeJoin{}} {
		got, err := j.JoinContext(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", j.Name(), err)
		}
		statsEqual(t, got, want, j.Name())
	}
	// The filter must actually bite: total under filter < total unfiltered.
	unfiltered, _ := (&BruteForce{}).JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count})
	if want.TotalCount() >= unfiltered.TotalCount() {
		t.Errorf("filtered total %d should be < unfiltered %d",
			want.TotalCount(), unfiltered.TotalCount())
	}
	if want.TotalCount() == 0 {
		t.Error("filtered total is 0; filter swallowed everything (bad test data)")
	}
}

func TestBruteForceCountConservationOnPartition(t *testing.T) {
	// Unjittered Voronoi partitions the bounds, so every point falls in
	// exactly one region (up to boundary ties): total equals point count.
	ps := randomPoints(3000, 17, unitBounds())
	rs := data.VoronoiRegions("part", unitBounds(), 20, 18, data.VoronoiOptions{})
	res, err := (&BruteForce{}).JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count})
	if err != nil {
		t.Fatal(err)
	}
	got := res.TotalCount()
	// Boundary ties can drop or duplicate a handful of points.
	if got < int64(ps.Len())-5 || got > int64(ps.Len())+5 {
		t.Errorf("partition total = %d, want ~%d", got, ps.Len())
	}
}

func TestJoinAggregates(t *testing.T) {
	// Single square region with known contents.
	ps := &data.PointSet{
		Name: "known",
		X:    []float64{1, 2, 3, 50},
		Y:    []float64{1, 2, 3, 50},
		T:    []int64{0, 1, 2, 3},
		Attrs: []data.Column{
			{Name: "v", Values: []float64{10, 20, 30, 40}},
		},
	}
	rs := &data.RegionSet{Name: "one", Regions: []data.Region{{
		ID: 0, Name: "sq",
		Poly: geom.NewPolygon(geom.RectRing(geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10})),
	}}}

	bf := &BruteForce{}
	count, _ := bf.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count})
	if count.Stats[0].Count != 3 {
		t.Errorf("count = %d, want 3", count.Stats[0].Count)
	}
	sum, _ := bf.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"})
	if sum.Stats[0].Sum != 60 {
		t.Errorf("sum = %v, want 60", sum.Stats[0].Sum)
	}
	avg, _ := bf.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Avg, Attr: "v"})
	if got := avg.Value(0, core.Avg); got != 20 {
		t.Errorf("avg = %v, want 20", got)
	}
}

func TestJoinValidationErrors(t *testing.T) {
	ps, rs := testScene(100, 4, 19)
	bad := []core.Request{
		{Points: nil, Regions: rs, Agg: core.Count},
		{Points: ps, Regions: rs, Agg: core.Sum, Attr: "nope"},
		{Points: ps, Regions: rs, Agg: core.Count,
			Filters: []core.Filter{{Attr: "nope", Min: 0, Max: 1}}},
	}
	for i, req := range bad {
		for _, j := range []core.Joiner{&BruteForce{}, &GridJoin{}, &RTreeJoin{}} {
			if _, err := j.JoinContext(context.Background(), req); err == nil {
				t.Errorf("case %d: %s accepted invalid request", i, j.Name())
			}
		}
	}
}

func TestIndexReusedAcrossQueries(t *testing.T) {
	ps, rs := testScene(2000, 8, 23)
	g := &GridJoin{}
	g.Prepare(ps)
	idxBefore := g.cached
	if _, err := g.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count}); err != nil {
		t.Fatal(err)
	}
	if g.cached != idxBefore {
		t.Error("grid index should be reused for the same point set")
	}
	// A different point set triggers a rebuild.
	ps2 := randomPoints(500, 29, unitBounds())
	if _, err := g.JoinContext(context.Background(), core.Request{Points: ps2, Regions: rs, Agg: core.Count}); err != nil {
		t.Fatal(err)
	}
	if g.cached == idxBefore {
		t.Error("grid index should rebuild for a new point set")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	ps, rs := testScene(3000, 12, 31)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	serial, err := (&BruteForce{Workers: 1}).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&BruteForce{Workers: 8}).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, parallel, serial, "brute-force parallel vs serial")

	rserial, _ := (&RTreeJoin{Workers: 1}).JoinContext(context.Background(), req)
	rparallel, _ := (&RTreeJoin{Workers: 8}).JoinContext(context.Background(), req)
	statsEqual(t, rparallel, rserial, "rtree parallel vs serial")
}

func TestEmptyInputs(t *testing.T) {
	rs := data.GridRegions("g", unitBounds(), 2, 2)
	empty := &data.PointSet{Name: "empty"}
	for _, j := range []core.Joiner{&BruteForce{}, &GridJoin{}, &RTreeJoin{}} {
		res, err := j.JoinContext(context.Background(), core.Request{Points: empty, Regions: rs, Agg: core.Count})
		if err != nil {
			t.Fatalf("%s on empty points: %v", j.Name(), err)
		}
		if res.TotalCount() != 0 {
			t.Errorf("%s: empty points total = %d", j.Name(), res.TotalCount())
		}
	}
	// Empty regions.
	ps := randomPoints(100, 1, unitBounds())
	emptyRS := &data.RegionSet{Name: "none"}
	for _, j := range []core.Joiner{&BruteForce{}, &GridJoin{}, &RTreeJoin{}} {
		res, err := j.JoinContext(context.Background(), core.Request{Points: ps, Regions: emptyRS, Agg: core.Count})
		if err != nil {
			t.Fatalf("%s on empty regions: %v", j.Name(), err)
		}
		if len(res.Stats) != 0 {
			t.Errorf("%s: empty regions stats = %d", j.Name(), len(res.Stats))
		}
	}
}

func predPoints() *data.PointSet {
	return &data.PointSet{
		Name: "pts",
		X:    []float64{1, 2, 3, 4},
		Y:    []float64{1, 2, 3, 4},
		T:    []int64{10, 20, 30, 40},
		Attrs: []data.Column{
			{Name: "v", Values: []float64{1, 2, 3, 4}},
		},
	}
}

func predRegions() *data.RegionSet {
	return data.GridRegions("g", geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 2, 2)
}

func TestPointPredicateTimeSorted(t *testing.T) {
	req := core.Request{Points: predPoints(), Regions: predRegions(),
		Time: &core.TimeFilter{Start: 15, End: 35}}
	lo, hi, pred, err := pointPredicate(req)
	if err != nil {
		t.Fatal(err)
	}
	if pred != nil {
		t.Error("sorted set should use range narrowing, not a predicate")
	}
	if lo != 1 || hi != 3 {
		t.Errorf("window = [%d,%d), want [1,3)", lo, hi)
	}
}

func TestPointPredicateTimeUnsorted(t *testing.T) {
	ps := predPoints()
	ps.T = []int64{40, 10, 30, 20} // unsorted
	req := core.Request{Points: ps, Regions: predRegions(),
		Time: &core.TimeFilter{Start: 15, End: 35}}
	lo, hi, pred, err := pointPredicate(req)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != ps.Len() || pred == nil {
		t.Fatalf("unsorted set should predicate over full range: lo=%d hi=%d pred=%v",
			lo, hi, pred != nil)
	}
	want := []bool{false, false, true, true}
	for i, w := range want {
		if pred(i) != w {
			t.Errorf("pred(%d) = %v, want %v", i, pred(i), w)
		}
	}
}

func TestPointPredicateFilters(t *testing.T) {
	req := core.Request{Points: predPoints(), Regions: predRegions(),
		Filters: []core.Filter{{Attr: "v", Min: 2, Max: 4}}}
	_, _, pred, err := pointPredicate(req)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true, false} // [2,4): values 2 and 3
	for i, w := range want {
		if pred(i) != w {
			t.Errorf("pred(%d) = %v, want %v", i, pred(i), w)
		}
	}
	// Multiple filters AND together (and compose with time).
	req.Filters = append(req.Filters, core.Filter{Attr: "v", Min: 3, Max: 10})
	_, _, pred, _ = pointPredicate(req)
	want = []bool{false, false, true, false}
	for i, w := range want {
		if pred(i) != w {
			t.Errorf("multi pred(%d) = %v, want %v", i, pred(i), w)
		}
	}
	// Unknown attribute errors.
	req.Filters = []core.Filter{{Attr: "nope"}}
	if _, _, _, err := pointPredicate(req); err == nil {
		t.Error("unknown filter attribute should error")
	}
}
