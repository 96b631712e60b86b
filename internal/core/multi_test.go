package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// MultiJoin must equal per-spec Joins, spec by spec, in both modes.
func TestMultiJoinMatchesIndividualJoins(t *testing.T) {
	ps, rs := scene(4000, 10, 401)
	specs := []core.AggSpec{
		{Agg: core.Count},
		{Agg: core.Avg, Attr: "v"},
		{Agg: core.Sum, Attr: "v", Filters: []core.Filter{{Attr: "v", Min: 3, Max: 8}}},
		{Agg: core.Count, Time: &core.TimeFilter{Start: 500, End: 3000}},
	}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		rj := core.NewRasterJoin(core.WithResolution(256), core.WithMode(mode))
		req := core.Request{Points: ps, Regions: rs}
		multi, err := rj.MultiJoinContext(context.Background(), req, specs)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(multi) != len(specs) {
			t.Fatalf("results = %d, want %d", len(multi), len(specs))
		}
		for s, spec := range specs {
			single := core.Request{Points: ps, Regions: rs,
				Agg: spec.Agg, Attr: spec.Attr,
				Filters: spec.Filters, Time: spec.Time}
			want, err := rj.Join(single)
			if err != nil {
				t.Fatal(err)
			}
			statsExactlyEqual(t, multi[s], want, spec.Agg.String())
		}
	}
}

// Global request filters compose with per-spec filters.
func TestMultiJoinGlobalFilters(t *testing.T) {
	ps, rs := scene(3000, 8, 403)
	req := core.Request{Points: ps, Regions: rs,
		Filters: []core.Filter{{Attr: "v", Min: 2, Max: 9}},
		Time:    &core.TimeFilter{Start: 0, End: 2500}}
	specs := []core.AggSpec{
		{Agg: core.Count},
		{Agg: core.Count, Filters: []core.Filter{{Attr: "v", Min: 5, Max: 9}}},
	}
	rj := core.NewRasterJoin(core.WithResolution(256), core.WithMode(core.Accurate))
	multi, err := rj.MultiJoinContext(context.Background(), req, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Spec 1 is a strict subset of spec 0.
	t0, t1 := multi[0].TotalCount(), multi[1].TotalCount()
	if t1 >= t0 || t1 == 0 {
		t.Errorf("subset spec total %d should be in (0, %d)", t1, t0)
	}
	// And both must match their individual joins.
	for s, spec := range specs {
		single := req
		single.Agg = spec.Agg
		single.Filters = append(append([]core.Filter{}, req.Filters...), spec.Filters...)
		want, err := rj.Join(single)
		if err != nil {
			t.Fatal(err)
		}
		statsExactlyEqual(t, multi[s], want, "composed filters")
	}
}

func TestMultiJoinErrors(t *testing.T) {
	ps, rs := scene(100, 4, 405)
	rj := core.NewRasterJoin(core.WithResolution(64))
	req := core.Request{Points: ps, Regions: rs}
	if _, err := rj.MultiJoinContext(context.Background(), req, nil); err == nil {
		t.Error("no specs should fail")
	}
	if _, err := rj.MultiJoinContext(context.Background(), req, []core.AggSpec{{Agg: core.Sum, Attr: "nope"}}); err == nil {
		t.Error("unknown spec attribute should fail")
	}
	if _, err := rj.MultiJoinContext(context.Background(), req, []core.AggSpec{
		{Agg: core.Count, Filters: []core.Filter{{Attr: "nope"}}}}); err == nil {
		t.Error("unknown spec filter attribute should fail")
	}
	// Field-wise copy: PointSet carries an atomic identity stamp, so a
	// by-value copy is both a vet violation and semantically wrong.
	noTCopy := &data.PointSet{Name: ps.Name, X: ps.X, Y: ps.Y, Attrs: ps.Attrs}
	if _, err := rj.MultiJoinContext(context.Background(), core.Request{Points: noTCopy, Regions: rs},
		[]core.AggSpec{{Agg: core.Count, Time: &core.TimeFilter{Start: 0, End: 1}}}); err == nil {
		t.Error("spec time filter without timestamps should fail")
	}
}
