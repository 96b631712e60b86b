package tcache_test

// Series-backed folds: every run of missing slabs is computed as the bins of
// one series tile. Nothing observable may change — a cold fold via series
// equals the per-slab fold and the warm fold field for field — and the
// requests series refuses, appends landing mid-fold, the core.join fault
// site and an empty data set behave as on the per-slab path.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/tcache"
)

// perSlab hides the wrapped joiner's series form, forcing the per-slab fold.
type perSlab struct{ core.ContextJoiner }

// counting wraps a raster joiner and counts the computes a fold issued:
// series that ran, and per-slab joins. after, when set, runs once the first
// series returns — between a fold's compute and its puts.
type counting struct {
	*core.RasterJoin
	series, slabs int
	after         func()
}

func (c *counting) JoinContext(ctx context.Context, req core.Request) (*core.Result, error) {
	c.slabs++
	return c.RasterJoin.JoinContext(ctx, req)
}

func (c *counting) SeriesJoinContext(ctx context.Context, req core.Request, start, end int64, bins int) (*core.SeriesResult, error) {
	sr, err := c.RasterJoin.SeriesJoinContext(ctx, req, start, end, bins)
	if err == nil {
		c.series++
		if c.after != nil {
			c.after()
			c.after = nil
		}
	}
	return sr, err
}

// requireSame is reflect.DeepEqual on two results, falling back to the
// bit-level comparison that unifies NaN payloads (DeepEqual calls NaN
// unequal to itself, and attribute v carries NaNs).
func requireSame(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		requireBitIdentical(t, label, got, want)
	}
}

// shuffled returns ps in a random point order: the same points, no longer
// time-sorted, so the fold's series takes the residual-predicate path.
func shuffled(ps *data.PointSet, seed int64) *data.PointSet {
	perm := rand.New(rand.NewSource(seed)).Perm(ps.Len())
	return ps.Select(perm)
}

// TestSeriesFoldMatchesPerSlabFold: over COUNT/SUM/AVG × both modes ×
// filters × time-sorted and unsorted sources, a cold fold computed through
// series equals the per-slab fold and the warm fold of the same window.
func TestSeriesFoldMatchesPerSlabFold(t *testing.T) {
	sorted := buildTemporalScene(t, 3000, 77)
	ctx := context.Background()
	const gran = 3600
	for _, src := range []struct {
		name string
		ps   *data.PointSet
	}{{"sorted", sorted}, {"unsorted", shuffled(sorted, 5)}} {
		for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
			rng := rand.New(rand.NewSource(int64(mode) + 17))
			rs := queryRegions(rng)
			raster := &counting{RasterJoin: core.NewRasterJoin(core.WithMode(mode), core.WithResolution(96))}
			for i, ac := range []struct {
				agg  core.Agg
				attr string
			}{{core.Count, ""}, {core.Sum, "w"}, {core.Avg, "w"}, {core.Sum, "v"}, {core.Avg, "v"}} {
				for _, filters := range [][]core.Filter{nil, {{Attr: "w", Min: 10, Max: 50}}} {
					startSlab := int64(rng.Intn(50)) - 3
					req := core.Request{
						Points: src.ps, Regions: rs, Agg: ac.agg, Attr: ac.attr, Filters: filters,
						Time: &core.TimeFilter{Start: startSlab * gran, End: (startSlab + 1 + int64(rng.Intn(14))) * gran},
					}
					label := fmt.Sprintf("%s/%v/%d/%v", src.name, mode, i, filters != nil)
					series := tcache.New(raster, gran, 0, 0)
					before := raster.series
					cold, err := series.JoinContext(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					if raster.series != before+1 {
						t.Fatalf("%s: cold fold ran %d series, want 1", label, raster.series-before)
					}
					perSlabFold, err := tcache.New(perSlab{raster.RasterJoin}, gran, 0, 0).JoinContext(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					requireSame(t, label+" series-vs-per-slab", cold, perSlabFold)
					warm, err := series.JoinContext(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					requireSame(t, label+" cold-vs-warm", cold, warm)
				}
			}
		}
	}
}

// TestPartiallyWarmFoldMatchesCold: with cached slabs between the missing
// runs, each run is its own series and the fold equals a cold one.
func TestPartiallyWarmFoldMatchesCold(t *testing.T) {
	ps := buildTemporalScene(t, 3000, 19)
	rs := queryRegions(rand.New(rand.NewSource(23)))
	raster := &counting{RasterJoin: core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))}
	ctx := context.Background()
	const gran = 1800
	window := func(lo, hi int64) core.Request {
		return core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "w",
			Filters: []core.Filter{{Attr: "v", Min: -50, Max: 80}},
			Time:    &core.TimeFilter{Start: lo * gran, End: hi * gran}}
	}
	j := tcache.New(raster, gran, 0, 0)
	for _, warm := range [][2]int64{{2, 4}, {7, 8}, {11, 12}} {
		if _, err := j.JoinContext(ctx, window(warm[0], warm[1])); err != nil {
			t.Fatal(err)
		}
	}
	before := raster.series
	got, err := j.JoinContext(ctx, window(0, 14))
	if err != nil {
		t.Fatal(err)
	}
	// Missing runs: [0,2), [4,7), [8,11), [12,14).
	if n := raster.series - before; n != 4 {
		t.Fatalf("partially warm fold ran %d series, want 4", n)
	}
	cold, err := tcache.New(raster, gran, 0, 0).JoinContext(ctx, window(0, 14))
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "partially-warm-vs-cold", got, cold)
}

// TestRefusedRequestsFoldPerSlab: MIN/MAX and the ε mode, which series
// refuses, still fold one JoinContext per slab.
func TestRefusedRequestsFoldPerSlab(t *testing.T) {
	ps := buildTemporalScene(t, 2000, 31)
	rs := queryRegions(rand.New(rand.NewSource(37)))
	ctx := context.Background()
	const gran, slabs = 3600, 6
	tf := &core.TimeFilter{Start: 3 * gran, End: (3 + slabs) * gran}
	for _, tc := range []struct {
		name string
		rj   *core.RasterJoin
		req  core.Request
	}{
		{"min", core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96)),
			core.Request{Points: ps, Regions: rs, Agg: core.Min, Attr: "v", Time: tf}},
		{"max", core.NewRasterJoin(core.WithResolution(96)),
			core.Request{Points: ps, Regions: rs, Agg: core.Max, Attr: "w", Time: tf}},
		{"epsilon", core.NewRasterJoin(core.WithMode(core.Accurate), core.WithEpsilon(12)),
			core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "w", Time: tf}},
	} {
		raster := &counting{RasterJoin: tc.rj}
		got, err := tcache.New(raster, gran, 0, 0).JoinContext(ctx, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if raster.series != 0 || raster.slabs != slabs {
			t.Fatalf("%s: %d series and %d slab joins, want 0 and %d", tc.name, raster.series, raster.slabs, slabs)
		}
		want, err := tcache.New(perSlab{tc.rj}, gran, 0, 0).JoinContext(ctx, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, tc.name, got, want)
	}
}

// TestAppendMidFoldFilesLatePartials: an append whose Rekey lands between a
// fold's series and its puts must not strand the fold's partials under the
// retired stamp. Clean slabs land under the successor — the next fold over
// the grown set reuses them — and the dirty one is dropped, so that fold
// still equals a cold fold of the grown set.
func TestAppendMidFoldFilesLatePartials(t *testing.T) {
	ps := buildTemporalScene(t, 3000, 43)
	rs := queryRegions(rand.New(rand.NewSource(47)))
	raster := &counting{RasterJoin: core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))}
	ctx := context.Background()
	const gran = 3600
	j := tcache.New(raster, gran, 0, 0)

	// The tail lands in the window's last slab, the one holding the set's
	// latest timestamp.
	_, last, _ := ps.TimeRange()
	dirty := tcache.SlabOf(last, gran)
	if dirty != 47*gran {
		t.Fatalf("latest timestamp %d outside the window's last slab", last)
	}
	tail := &data.PointSet{Name: ps.Name, X: []float64{500, 510}, Y: []float64{500, 490},
		T:     []int64{last, last},
		Attrs: []data.Column{{Name: "v", Values: []float64{1, 2}}, {Name: "w", Values: []float64{3, 4}}}}
	grown, err := ps.AppendCOW(tail)
	if err != nil {
		t.Fatal(err)
	}
	raster.after = func() {
		j.Cache().Rekey(ps.Stamp(), grown.Stamp(), map[int64]bool{dirty: true})
	}
	window := func(p *data.PointSet) core.Request {
		return core.Request{Points: p, Regions: rs, Agg: core.Avg, Attr: "w",
			Time: &core.TimeFilter{Start: 40 * gran, End: 48 * gran}}
	}
	if _, err := j.JoinContext(ctx, window(ps)); err != nil {
		t.Fatal(err)
	}
	if raster.after != nil {
		t.Fatal("the append never ran mid-fold")
	}
	if drops := j.Cache().Stats().RekeyDrops; drops != 1 {
		t.Fatalf("late puts dropped %d dirty slabs, want 1", drops)
	}

	reused := j.SlabsReused()
	got, err := j.JoinContext(ctx, window(grown))
	if err != nil {
		t.Fatal(err)
	}
	if n := j.SlabsReused() - reused; n != 7 {
		t.Fatalf("fold over the grown set reused %d slabs, want the 7 clean ones", n)
	}
	cold, err := tcache.New(raster, gran, 0, 0).JoinContext(ctx, window(grown))
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "after-mid-fold-append", got, cold)
}

// TestSeriesFoldFaultSite: a cold fold through series passes the core.join
// site once per missing run, not once per slab; an injected fault there
// fails the fold and caches nothing.
func TestSeriesFoldFaultSite(t *testing.T) {
	ps := buildTemporalScene(t, 2000, 53)
	rs := queryRegions(rand.New(rand.NewSource(59)))
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))
	const gran, slabs = 3600, 9
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count,
		Time: &core.TimeFilter{Start: 10 * gran, End: (10 + slabs) * gran}}

	reg := fault.New(1)
	reg.Set("core.join", fault.Rule{Prob: 0})
	ctx := fault.NewContext(context.Background(), reg)
	if _, err := tcache.New(raster, gran, 0, 0).JoinContext(ctx, req); err != nil {
		t.Fatal(err)
	}
	if calls := reg.Counts()["core.join"][0]; calls != 1 {
		t.Fatalf("series fold passed core.join %d times, want 1", calls)
	}
	minReq := req
	minReq.Agg, minReq.Attr = core.Min, "w"
	if _, err := tcache.New(raster, gran, 0, 0).JoinContext(ctx, minReq); err != nil {
		t.Fatal(err)
	}
	if calls := reg.Counts()["core.join"][0]; calls != 1+slabs {
		t.Fatalf("per-slab fold passed core.join %d times, want %d", calls-1, slabs)
	}

	reg.Set("core.join", fault.Rule{Prob: 1, Kind: fault.Error})
	j := tcache.New(raster, gran, 0, 0)
	if _, err := j.JoinContext(ctx, req); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted fold returned %v, want the injected error", err)
	}
	if st := j.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("faulted fold cached %d partials", st.Entries)
	}
}

// TestEmptyDataSetFold: over a data set with no points the series fold
// reports what every per-slab join does — zero canvas dimensions.
func TestEmptyDataSetFold(t *testing.T) {
	empty := &data.PointSet{Name: "empty", X: []float64{}, Y: []float64{}, T: []int64{},
		Attrs: []data.Column{{Name: "w", Values: []float64{}}}}
	rs := queryRegions(rand.New(rand.NewSource(61)))
	raster := &counting{RasterJoin: core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))}
	ctx := context.Background()
	req := core.Request{Points: empty, Regions: rs, Agg: core.Sum, Attr: "w",
		Time: &core.TimeFilter{Start: 0, End: 4 * 3600}}
	got, err := tcache.New(raster, 3600, 0, 0).JoinContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if raster.series != 1 || got.CanvasW != 0 || got.Tiles != 0 {
		t.Fatalf("empty fold: %d series, result %+v", raster.series, got)
	}
	want, err := tcache.New(perSlab{raster.RasterJoin}, 3600, 0, 0).JoinContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "empty", got, want)
}
