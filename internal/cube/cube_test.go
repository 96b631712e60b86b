package cube

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/segment"
)

func cubeScene(np int, seed int64) (*data.PointSet, *data.RegionSet) {
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{
		Name: "pts",
		X:    make([]float64, np),
		Y:    make([]float64, np),
		T:    make([]int64, np),
	}
	vals := make([]float64, np)
	for i := 0; i < np; i++ {
		ps.X[i] = rng.Float64() * 1000
		ps.Y[i] = rng.Float64() * 1000
		ps.T[i] = int64(rng.Intn(10 * 3600)) // ten hours
		vals[i] = rng.Float64() * 5
	}
	ps.Attrs = []data.Column{{Name: "v", Values: vals}}
	ps.SortByTime()
	rs := data.VoronoiRegions("nbhd", bounds, 15, seed+1,
		data.VoronoiOptions{JitterFrac: 0.05})
	return ps, rs
}

func TestCubeMatchesBruteForceUnfiltered(t *testing.T) {
	ps, rs := cubeScene(4000, 3)
	c, err := Build(ps, Config{Regions: rs, TimeBin: 3600, Attrs: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []core.Agg{core.Count, core.Sum, core.Avg} {
		req := core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v"}
		want, err := (&index.BruteForce{}).JoinContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.JoinContext(context.Background(), req)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		for k := range want.Stats {
			if got.Stats[k].Count != want.Stats[k].Count {
				t.Fatalf("%v region %d: count %d vs %d",
					agg, k, got.Stats[k].Count, want.Stats[k].Count)
			}
			if math.Abs(got.Stats[k].Sum-want.Stats[k].Sum) > 1e-6 {
				t.Fatalf("%v region %d: sum %v vs %v",
					agg, k, got.Stats[k].Sum, want.Stats[k].Sum)
			}
		}
	}
}

func TestCubeAlignedTimeRange(t *testing.T) {
	ps, rs := cubeScene(3000, 7)
	c, err := Build(ps, Config{Regions: rs, TimeBin: 3600})
	if err != nil {
		t.Fatal(err)
	}
	// Aligned window [bin1, bin4).
	start := c.BinStart(1)
	end := c.BinStart(4)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count,
		Time: &core.TimeFilter{Start: start, End: end}}
	want, _ := (&index.BruteForce{}).JoinContext(context.Background(), req)
	got, err := c.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Stats {
		if got.Stats[k].Count != want.Stats[k].Count {
			t.Fatalf("region %d: %d vs %d", k, got.Stats[k].Count, want.Stats[k].Count)
		}
	}
}

func TestCubeRejectsAdHocQueries(t *testing.T) {
	ps, rs := cubeScene(500, 11)
	c, err := Build(ps, Config{Regions: rs, TimeBin: 3600, Attrs: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  core.Request
	}{
		{"ad-hoc filter", core.Request{Points: ps, Regions: rs, Agg: core.Count,
			Filters: []core.Filter{{Attr: "v", Min: 1, Max: 2}}}},
		{"misaligned time", core.Request{Points: ps, Regions: rs, Agg: core.Count,
			Time: &core.TimeFilter{Start: c.BinStart(0) + 17, End: c.BinStart(2)}}},
		{"foreign regions", core.Request{Points: ps,
			Regions: data.GridRegions("other", geom.BBox{MaxX: 1, MaxY: 1}, 1, 1),
			Agg:     core.Count}},
		{"unmaterialized attr", func() core.Request {
			ps2 := ps
			return core.Request{Points: ps2, Regions: rs, Agg: core.Sum, Attr: "w"}
		}()},
	}
	// Give the point set a second attribute so "unmaterialized attr"
	// passes request validation but not cube support.
	ps.AddAttr("w", make([]float64, ps.Len()))
	for _, tc := range cases {
		_, err := c.JoinContext(context.Background(), tc.req)
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: err = %v, want ErrUnsupported", tc.name, err)
		}
	}
	// Foreign point set.
	other, _ := cubeScene(10, 99)
	if _, err := c.JoinContext(context.Background(), core.Request{Points: other, Regions: rs, Agg: core.Count}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("foreign points: err = %v", err)
	}
	// MIN/MAX are not materialized.
	if _, err := c.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs,
		Agg: core.Min, Attr: "v"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("min: err = %v", err)
	}
}

func TestCubeNoTimeDimension(t *testing.T) {
	ps, rs := cubeScene(1000, 13)
	c, err := Build(ps, Config{Regions: rs, TimeBin: 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Bins() != 1 {
		t.Errorf("bins = %d, want 1", c.Bins())
	}
	if _, err := c.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count,
		Time: &core.TimeFilter{Start: 0, End: 3600}}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("time filter without time dimension: err = %v", err)
	}
	// Untimed query works.
	if _, err := c.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: core.Count}); err != nil {
		t.Errorf("untimed query: %v", err)
	}
}

func TestCubeBuildErrors(t *testing.T) {
	ps, _ := cubeScene(10, 19)
	if _, err := Build(ps, Config{}); err == nil {
		t.Error("nil regions should fail")
	}
	rs := data.GridRegions("g", geom.BBox{MaxX: 1, MaxY: 1}, 1, 1)
	if _, err := Build(ps, Config{Regions: rs, Attrs: []string{"nope"}}); err == nil {
		t.Error("unknown attr should fail")
	}
}

// TestCubeBuildOverSegments: a time-binned cube built by reading a segment
// store block by block, with and without a column cache, holds the same
// cells bit for bit as one built over the in-RAM set — the build must read
// the time column it bins by and the attributes it sums, not only X and Y.
func TestCubeBuildOverSegments(t *testing.T) {
	ps, rs := cubeScene(5000, 29)
	w := make([]float64, ps.Len())
	for i := range w {
		w[i] = float64(i%97) * 0.25
	}
	ps.AddAttr("w", w)
	var buf bytes.Buffer
	if err := segment.Write(&buf, ps, segment.WithBlockSize(512)); err != nil {
		t.Fatal(err)
	}
	for _, attrs := range [][]string{{"w"}, {"v", "w"}} {
		cfg := Config{Regions: rs, TimeBin: 3600, Attrs: attrs}
		want, err := Build(ps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{1 << 20, 0} {
			st, err := segment.OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()),
				segment.WithCacheBytes(budget))
			if err != nil {
				t.Fatal(err)
			}
			got, err := build(ps, st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Bins() != want.Bins() || !slices.Equal(got.counts, want.counts) {
				t.Fatalf("attrs %v cache %d: counts differ from the in-RAM build", attrs, budget)
			}
			for _, a := range attrs {
				for i, v := range want.sums[a] {
					if math.Float64bits(got.sums[a][i]) != math.Float64bits(v) {
						t.Fatalf("attrs %v cache %d: sum %q cell %d = %v, want %v",
							attrs, budget, a, i, got.sums[a][i], v)
					}
				}
			}
		}
	}
}

func TestCubeMemoryCells(t *testing.T) {
	ps, rs := cubeScene(1000, 23)
	c, _ := Build(ps, Config{Regions: rs, TimeBin: 3600})
	if c.MemoryCells() != c.Bins()*rs.Len() {
		t.Errorf("cells = %d, want %d", c.MemoryCells(), c.Bins()*rs.Len())
	}
}

// TestCubeBuildIndependentOfGOMAXPROCS: the build's shard cuts and merge
// order are fixed, so cubes built at 1, 2, 3 and 4 P answer SUM and AVG —
// over the whole range and over an aligned window — with the same bits.
func TestCubeBuildIndependentOfGOMAXPROCS(t *testing.T) {
	ps, rs := cubeScene(50_000, 13)
	// Values with long mantissas, so every reassociation of a cell's sum
	// shows in its bits.
	for i, v := range ps.Attrs[0].Values {
		ps.Attrs[0].Values[i] = v * math.Pi * 1e3
	}
	window := &core.TimeFilter{Start: 3600, End: 7 * 3600}
	var want [][]core.RegionStat
	for _, procs := range []int{1, 2, 3, 4} {
		prev := runtime.GOMAXPROCS(procs)
		c, err := Build(ps, Config{Regions: rs, TimeBin: 3600, Attrs: []string{"v"}})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]core.RegionStat
		for _, agg := range []core.Agg{core.Sum, core.Avg} {
			for _, tf := range []*core.TimeFilter{nil, window} {
				res, err := c.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v", Time: tf})
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, res.Stats)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for q := range got {
			for k := range got[q] {
				g, w := got[q][k], want[q][k]
				if g.Count != w.Count || math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
					t.Fatalf("%d P, query %d, region %d: %+v, want %+v (1 P)", procs, q, k, g, w)
				}
			}
		}
	}
}
