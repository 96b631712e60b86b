package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// flowScene builds points with destination columns plus a partition layer.
func flowScene(np, nr int, seed int64) (*data.PointSet, *data.RegionSet) {
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{Name: "trips",
		X: make([]float64, np), Y: make([]float64, np), T: make([]int64, np)}
	dx := make([]float64, np)
	dy := make([]float64, np)
	v := make([]float64, np)
	for i := 0; i < np; i++ {
		ps.X[i] = rng.Float64() * 1000
		ps.Y[i] = rng.Float64() * 1000
		dx[i] = rng.Float64() * 1000
		dy[i] = rng.Float64() * 1000
		ps.T[i] = int64(i)
		v[i] = rng.Float64() * 10
	}
	ps.Attrs = []data.Column{
		{Name: "v", Values: v},
		{Name: data.DropoffXAttr, Values: dx},
		{Name: data.DropoffYAttr, Values: dy},
	}
	rs := data.VoronoiRegions("cells", bounds, nr, seed+1, data.VoronoiOptions{})
	return ps, rs
}

// bruteFlow computes the exact OD matrix geometrically.
func bruteFlow(ps *data.PointSet, rs *data.RegionSet, pred func(i int) bool) map[int64]int64 {
	dx := ps.Attr(data.DropoffXAttr)
	dy := ps.Attr(data.DropoffYAttr)
	nr := int64(rs.Len())
	locate := func(p geom.Point) int64 {
		for k := range rs.Regions {
			if rs.Regions[k].Poly.Contains(p) {
				return int64(k)
			}
		}
		return -1
	}
	out := map[int64]int64{}
	for i := 0; i < ps.Len(); i++ {
		if pred != nil && !pred(i) {
			continue
		}
		o := locate(geom.Point{X: ps.X[i], Y: ps.Y[i]})
		d := locate(geom.Point{X: dx[i], Y: dy[i]})
		if o < 0 || d < 0 {
			continue
		}
		out[o*nr+d]++
	}
	return out
}

func TestFlowJoinApproximatesBruteForce(t *testing.T) {
	ps, rs := flowScene(4000, 8, 301)
	rj := core.NewRasterJoin(core.WithResolution(1024))
	got, err := rj.FlowJoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count},
		data.DropoffXAttr, data.DropoffYAttr)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFlow(ps, rs, nil)

	// Totals match closely (misassignment only at cell boundaries).
	var wantTotal int64
	for _, v := range want {
		wantTotal += v
	}
	gotTotal := got.Total()
	diff := gotTotal - wantTotal
	if diff < 0 {
		diff = -diff
	}
	if diff > wantTotal/50+5 {
		t.Errorf("flow total %d vs exact %d", gotTotal, wantTotal)
	}
	// Per-cell: large cells are close.
	for cell, wv := range want {
		gv := got.Counts[cell]
		d := gv - wv
		if d < 0 {
			d = -d
		}
		if wv > 50 && d > wv/5 {
			t.Errorf("cell %d: flow %d vs exact %d", cell, gv, wv)
		}
	}
	if got.Regions != rs.Len() {
		t.Errorf("Regions = %d", got.Regions)
	}
	// On a partition with random ODs almost nothing is dropped.
	if got.Dropped > int64(ps.Len())/20 {
		t.Errorf("dropped = %d of %d", got.Dropped, ps.Len())
	}
}

// Accurate-mode flow join must equal the brute OD matrix exactly on a
// partition layer.
func TestAccurateFlowJoinIsExact(t *testing.T) {
	ps, rs := flowScene(3000, 7, 307)
	rj := core.NewRasterJoin(core.WithResolution(256), core.WithMode(core.Accurate))
	got, err := rj.FlowJoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count},
		data.DropoffXAttr, data.DropoffYAttr)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteFlow(ps, rs, nil)
	if len(got.Counts) != len(want) {
		t.Fatalf("cells: %d vs %d", len(got.Counts), len(want))
	}
	for cell, wv := range want {
		if got.Counts[cell] != wv {
			t.Fatalf("cell %d: %d vs %d", cell, got.Counts[cell], wv)
		}
	}
	// Exact even at a coarse canvas where most pixels are boundary.
	coarse := core.NewRasterJoin(core.WithResolution(48), core.WithMode(core.Accurate))
	got, err = coarse.FlowJoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count},
		data.DropoffXAttr, data.DropoffYAttr)
	if err != nil {
		t.Fatal(err)
	}
	for cell, wv := range want {
		if got.Counts[cell] != wv {
			t.Fatalf("coarse cell %d: %d vs %d", cell, got.Counts[cell], wv)
		}
	}
}

func TestFlowJoinFilters(t *testing.T) {
	ps, rs := flowScene(3000, 6, 303)
	rj := core.NewRasterJoin(core.WithResolution(512))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count,
		Filters: []core.Filter{{Attr: "v", Min: 0, Max: 5}}}
	got, err := rj.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Filtered == 0 {
		t.Error("filter should have discarded points")
	}
	all, _ := rj.FlowJoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count},
		data.DropoffXAttr, data.DropoffYAttr)
	if got.Total() >= all.Total() {
		t.Errorf("filtered total %d should be < %d", got.Total(), all.Total())
	}
}

func TestFlowResultHelpers(t *testing.T) {
	f := &core.FlowResult{Regions: 3, Counts: map[int64]int64{
		0*3 + 1: 10, // 0 -> 1
		2*3 + 0: 30, // 2 -> 0
		1*3 + 1: 20, // 1 -> 1
	}}
	if f.At(2, 0) != 30 || f.At(0, 1) != 10 || f.At(1, 2) != 0 {
		t.Error("At wrong")
	}
	if f.Total() != 60 {
		t.Errorf("Total = %d", f.Total())
	}
	top := f.Top(2)
	if len(top) != 2 || top[0] != (core.Flow{From: 2, To: 0, Count: 30}) ||
		top[1] != (core.Flow{From: 1, To: 1, Count: 20}) {
		t.Errorf("Top = %+v", top)
	}
	if len(f.Top(100)) != 3 {
		t.Error("Top should cap at available flows")
	}
}

func TestFlowJoinErrors(t *testing.T) {
	ps, rs := flowScene(100, 4, 305)
	rj := core.NewRasterJoin(core.WithResolution(64))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	if _, err := rj.FlowJoinContext(context.Background(), req, "nope_x", "nope_y"); err == nil {
		t.Error("missing destination columns should fail")
	}
	eps := core.NewRasterJoin(core.WithEpsilon(5))
	if _, err := eps.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr); err == nil {
		t.Error("epsilon mode should be refused")
	}
	// Empty inputs return an empty matrix.
	empty := &data.PointSet{Name: "e"}
	res, err := rj.FlowJoinContext(context.Background(), core.Request{Points: empty, Regions: rs, Agg: core.Count},
		data.DropoffXAttr, data.DropoffYAttr)
	if err == nil {
		// empty has no dest columns, so an error is also acceptable; when
		// columns exist the result must be empty.
		if res.Total() != 0 {
			t.Error("empty points should yield no flow")
		}
	}
}
