package query

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/geom"
)

func TestParseMinimal(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM taxi, neighborhoods GROUP BY id")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != core.Count || q.Attr != "" || q.Points != "taxi" || q.Regions != "neighborhoods" {
		t.Errorf("parsed = %+v", q)
	}
	if len(q.Filters) != 0 || q.Time != nil {
		t.Error("minimal query should have no filters")
	}
}

func TestParseFull(t *testing.T) {
	stmt := `SELECT AVG(fare) FROM taxi, nbhd
		WHERE taxi.loc INSIDE nbhd.geometry
		AND fare BETWEEN 5 AND 30
		AND time BETWEEN 1230768000 AND 1233446400
		GROUP BY id`
	q, err := Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != core.Avg || q.Attr != "fare" {
		t.Errorf("agg = %v(%s)", q.Agg, q.Attr)
	}
	if len(q.Filters) != 1 || q.Filters[0] != (core.Filter{Attr: "fare", Min: 5, Max: 30}) {
		t.Errorf("filters = %+v", q.Filters)
	}
	if q.Time == nil || q.Time.Start != 1230768000 || q.Time.End != 1233446400 {
		t.Errorf("time = %+v", q.Time)
	}
}

func TestParseBareInside(t *testing.T) {
	q, err := Parse("SELECT SUM(fare) FROM taxi, nbhd WHERE INSIDE AND fare BETWEEN 1 AND 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 1 {
		t.Errorf("filters = %+v", q.Filters)
	}
}

func TestParseMinMax(t *testing.T) {
	q, err := Parse("SELECT MIN(fare) FROM taxi, nbhd")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != core.Min || q.Attr != "fare" {
		t.Errorf("parsed = %+v", q)
	}
	q, err = Parse("SELECT max(fare) FROM taxi, nbhd GROUP BY id")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != core.Max {
		t.Errorf("parsed = %+v", q)
	}
	if _, err := Parse("SELECT MIN(*) FROM taxi, nbhd"); err == nil {
		t.Error("MIN(*) should fail")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select count(*) from a, b where inside group by id")
	if err != nil {
		t.Fatal(err)
	}
	if q.Points != "a" || q.Regions != "b" {
		t.Errorf("parsed = %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		stmt, want string
	}{
		{"", "SELECT"},
		{"SELECT MEDIAN(x) FROM a, b", "unknown aggregate"},
		{"SELECT SUM(*) FROM a, b", "needs an attribute"},
		{"SELECT COUNT(*) FROM a", `expected ","`},
		{"SELECT COUNT(*) FROM a, b WHERE fare BETWEEN x AND 3", "numeric"},
		{"SELECT COUNT(*) FROM a, b WHERE time BETWEEN 0 AND oops", "unix seconds"},
		{"SELECT COUNT(*) FROM a, b WHERE fare BETWEEN 1 AND 2 AND", "dangling AND"},
		{"SELECT COUNT(*) FROM a, b GROUP BY id extra stuff", "trailing"},
		{"SELECT COUNT(*) FROM a, b WHERE fare NEAR 3", "BETWEEN"},
	}
	for _, c := range cases {
		_, err := Parse(c.stmt)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want mention of %q", c.stmt, err, c.want)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	stmt := "SELECT AVG(fare) FROM taxi, nbhd WHERE fare BETWEEN 5 AND 30 AND time BETWEEN 100 AND 200"
	q, err := Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", q.String(), err)
	}
	if q2.Agg != q.Agg || q2.Attr != q.Attr || len(q2.Filters) != len(q.Filters) ||
		(q2.Time == nil) != (q.Time == nil) {
		t.Errorf("round trip: %+v vs %+v", q2, q)
	}
}

// mapCatalog is a test Catalog.
type mapCatalog struct {
	points  map[string]*data.PointSet
	regions map[string]*data.RegionSet
}

func (c *mapCatalog) PointSet(n string) (*data.PointSet, bool) {
	p, ok := c.points[n]
	return p, ok
}
func (c *mapCatalog) RegionSet(n string) (*data.RegionSet, bool) {
	r, ok := c.regions[n]
	return r, ok
}

func planScene(t *testing.T) (*mapCatalog, *data.PointSet, *data.RegionSet) {
	t.Helper()
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(5))
	n := 2000
	ps := &data.PointSet{Name: "taxi",
		X: make([]float64, n), Y: make([]float64, n), T: make([]int64, n)}
	fares := make([]float64, n)
	for i := 0; i < n; i++ {
		ps.X[i] = rng.Float64() * 1000
		ps.Y[i] = rng.Float64() * 1000
		ps.T[i] = int64(rng.Intn(7200))
		fares[i] = rng.Float64() * 40
	}
	ps.Attrs = []data.Column{{Name: "fare", Values: fares}}
	ps.SortByTime()
	rs := data.VoronoiRegions("nbhd", bounds, 10, 6, data.VoronoiOptions{})
	return &mapCatalog{
		points:  map[string]*data.PointSet{"taxi": ps},
		regions: map[string]*data.RegionSet{"nbhd": rs},
	}, ps, rs
}

func TestPlannerRoutesCannedToCube(t *testing.T) {
	cat, ps, rs := planScene(t)
	c, err := cube.Build(ps, cube.Config{Regions: rs, TimeBin: 3600, Attrs: []string{"fare"}})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(core.NewRasterJoin(core.WithResolution(256)))
	pl.Cubes = append(pl.Cubes, c)

	q, _ := Parse("SELECT COUNT(*) FROM taxi, nbhd")
	plan, err := pl.Plan(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Joiner.Name() != "pre-aggregation-cube" {
		t.Errorf("canned query routed to %s, want cube", plan.Joiner.Name())
	}
	// Aligned time window also goes to the cube.
	q, _ = Parse("SELECT SUM(fare) FROM taxi, nbhd WHERE time BETWEEN 0 AND 3600")
	plan, err = pl.Plan(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Joiner.Name() != "pre-aggregation-cube" {
		t.Errorf("aligned window routed to %s, want cube", plan.Joiner.Name())
	}
}

func TestPlannerRoutesAdHocToRaster(t *testing.T) {
	cat, ps, rs := planScene(t)
	c, _ := cube.Build(ps, cube.Config{Regions: rs, TimeBin: 3600, Attrs: []string{"fare"}})
	pl := NewPlanner(core.NewRasterJoin(core.WithResolution(256)))
	pl.Cubes = append(pl.Cubes, c)

	for _, stmt := range []string{
		"SELECT COUNT(*) FROM taxi, nbhd WHERE fare BETWEEN 5 AND 20",     // ad-hoc filter
		"SELECT COUNT(*) FROM taxi, nbhd WHERE time BETWEEN 100 AND 3700", // misaligned
	} {
		q, err := Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := pl.Plan(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(plan.Joiner.Name(), "raster-join") {
			t.Errorf("%q routed to %s, want raster join", stmt, plan.Joiner.Name())
		}
	}
}

func TestPlannerErrors(t *testing.T) {
	cat, _, _ := planScene(t)
	pl := NewPlanner(core.NewRasterJoin())
	if _, err := pl.Plan(Query{Points: "nope", Regions: "nbhd"}, cat); err == nil {
		t.Error("unknown point set should fail")
	}
	if _, err := pl.Plan(Query{Points: "taxi", Regions: "nope"}, cat); err == nil {
		t.Error("unknown region set should fail")
	}
	q, _ := Parse("SELECT SUM(nope) FROM taxi, nbhd")
	if _, err := pl.Plan(q, cat); err == nil {
		t.Error("unknown attribute should fail validation at plan time")
	}
	// No engines at all.
	empty := &Planner{}
	q, _ = Parse("SELECT COUNT(*) FROM taxi, nbhd")
	if _, err := empty.Plan(q, cat); err == nil {
		t.Error("engine-less planner should fail")
	}
}

func TestRunEndToEndCubeMatchesRaster(t *testing.T) {
	cat, ps, rs := planScene(t)
	c, _ := cube.Build(ps, cube.Config{Regions: rs, TimeBin: 3600})
	withCube := NewPlanner(core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(512)))
	withCube.Cubes = append(withCube.Cubes, c)
	noCube := NewPlanner(core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(512)))

	stmt := "SELECT COUNT(*) FROM taxi, nbhd GROUP BY id"
	a, err := RunContext(context.Background(), stmt, withCube, cat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), stmt, noCube, cat)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Algorithm != "pre-aggregation-cube" {
		t.Errorf("cube planner used %s", a.Result.Algorithm)
	}
	if !strings.HasPrefix(b.Result.Algorithm, "raster-join-accurate") {
		t.Errorf("raster planner used %s", b.Result.Algorithm)
	}
	for k := range a.Result.Stats {
		if a.Result.Stats[k].Count != b.Result.Stats[k].Count {
			t.Fatalf("region %d: cube %d vs accurate raster %d",
				k, a.Result.Stats[k].Count, b.Result.Stats[k].Count)
		}
	}
	if a.Elapsed <= 0 || b.Elapsed <= 0 {
		t.Error("elapsed times should be positive")
	}
}
