package core

import (
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
)

func TestAggString(t *testing.T) {
	cases := map[Agg]string{Count: "COUNT", Sum: "SUM", Avg: "AVG", Agg(9): "Agg(9)"}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(a), got, want)
		}
	}
	if Count.NeedsAttr() || !Sum.NeedsAttr() || !Avg.NeedsAttr() {
		t.Error("NeedsAttr wrong")
	}
}

func TestRegionStatValue(t *testing.T) {
	s := RegionStat{Count: 4, Sum: 10}
	if s.Value(Count) != 4 || s.Value(Sum) != 10 || s.Value(Avg) != 2.5 {
		t.Errorf("values = %v/%v/%v", s.Value(Count), s.Value(Sum), s.Value(Avg))
	}
	if (RegionStat{}).Value(Avg) != 0 {
		t.Error("avg of empty region should be 0")
	}
	if s.Value(Agg(9)) != 0 {
		t.Error("unknown agg should be 0")
	}
}

func testPoints() *data.PointSet {
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

func testRegions() *data.RegionSet {
	return data.GridRegions("g", geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 2, 2)
}

func TestRequestValidate(t *testing.T) {
	ok := Request{Points: testPoints(), Regions: testRegions(), Agg: Avg, Attr: "v",
		Filters: []Filter{{Attr: "v", Min: 0, Max: 5}},
		Time:    &TimeFilter{Start: 0, End: 100}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request: %v", err)
	}
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"nil points", Request{Regions: testRegions()}, "needs points"},
		{"missing agg attr", Request{Points: testPoints(), Regions: testRegions(),
			Agg: Sum, Attr: "nope"}, `attribute "nope"`},
		{"missing filter attr", Request{Points: testPoints(), Regions: testRegions(),
			Filters: []Filter{{Attr: "nope"}}}, `"nope"`},
	}
	for _, c := range cases {
		err := c.req.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	// Time filter without timestamps.
	noT := testPoints()
	noT.T = nil
	bad := Request{Points: noT, Regions: testRegions(), Time: &TimeFilter{}}
	if err := bad.Validate(); err == nil {
		t.Error("time filter without timestamps should fail")
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Stats: []RegionStat{{Count: 2, Sum: 4}, {Count: 3, Sum: 9}}}
	if r.TotalCount() != 5 {
		t.Errorf("TotalCount = %d", r.TotalCount())
	}
	if r.Value(1, Avg) != 3 {
		t.Errorf("Value(1, Avg) = %v", r.Value(1, Avg))
	}
}
