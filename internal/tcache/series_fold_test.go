package tcache_test

// Series-backed folds: every run of missing slabs is computed as the bins of
// one series, for every aggregate, mode and canvas. A cold fold equals the
// per-slab fold, written out here over one JoinContext per slab, and the
// warm fold field for field; appends landing mid-fold, the core.join fault
// site and an empty data set behave as a per-slab fold would.

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
	"repro/internal/fsum"
	"repro/internal/gpu"
	"repro/internal/tcache"
)

// joinCounter returns a context that counts the passes of the core.join
// fault site — one per series, one per plain join — and a func reading the
// count.
func joinCounter() (context.Context, func() uint64) {
	reg := fault.New(1)
	reg.Set("core.join", fault.Rule{Prob: 0})
	return fault.NewContext(context.Background(), reg), func() uint64 { return reg.Counts()["core.join"][0] }
}

// onFirstPoll is a context that runs after once, at the first Err poll —
// inside a fold's first series, after the fold read its snapshot stamp and
// before its puts.
type onFirstPoll struct {
	context.Context
	after func()
}

func (c *onFirstPoll) Err() error {
	if c.after != nil {
		c.after()
		c.after = nil
	}
	return c.Context.Err()
}

// perSlabFold is the fold written out: one JoinContext per slab, merged by
// foldBins.
func perSlabFold(t *testing.T, rj *core.RasterJoin, req core.Request, gran int64) *core.Result {
	t.Helper()
	var bins []*core.Result
	for slab := req.Time.Start; slab < req.Time.End; slab += gran {
		sreq := req
		sreq.Time = &core.TimeFilter{Start: slab, End: slab + gran}
		res, err := rj.JoinContext(context.Background(), sreq)
		if err != nil {
			t.Fatal(err)
		}
		bins = append(bins, res)
	}
	return foldBins(bins)
}

// foldBins merges per-slab results in chronological order — counts add,
// min/max are monotone over nonempty slabs, sums go through one Kahan
// accumulator per region — with the first slab's metadata.
func foldBins(bins []*core.Result) *core.Result {
	out := *bins[0]
	out.Stats = make([]core.RegionStat, len(out.Stats))
	sums := make([]fsum.Kahan, len(out.Stats))
	for _, res := range bins {
		for r, ps := range res.Stats {
			if ps.Count == 0 {
				continue
			}
			s := &out.Stats[r]
			if s.Count == 0 {
				s.Min, s.Max = ps.Min, ps.Max
			} else {
				if ps.Min < s.Min {
					s.Min = ps.Min
				}
				if ps.Max > s.Max {
					s.Max = ps.Max
				}
			}
			s.Count += ps.Count
			sums[r].Add(ps.Sum)
		}
	}
	for r := range out.Stats {
		if out.Stats[r].Count > 0 {
			out.Stats[r].Sum = sums[r].Sum()
		}
	}
	return &out
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
// one series equals the per-slab fold and the warm fold of the same window.
func TestSeriesFoldMatchesPerSlabFold(t *testing.T) {
	sorted := buildTemporalScene(t, 3000, 77)
	const gran = 3600
	for _, src := range []struct {
		name string
		ps   *data.PointSet
	}{{"sorted", sorted}, {"unsorted", shuffled(sorted, 5)}} {
		for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
			rng := rand.New(rand.NewSource(int64(mode) + 17))
			rs := queryRegions(rng)
			raster := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(96))
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
					ctx, joins := joinCounter()
					cold, err := series.JoinContext(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					if n := joins(); n != 1 {
						t.Fatalf("%s: cold fold ran %d series, want 1", label, n)
					}
					requireSame(t, label+" series-vs-per-slab", cold, perSlabFold(t, raster, req, gran))
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
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))
	ctx, joins := joinCounter()
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
	before := joins()
	got, err := j.JoinContext(ctx, window(0, 14))
	if err != nil {
		t.Fatal(err)
	}
	// Missing runs: [0,2), [4,7), [8,11), [12,14).
	if n := joins() - before; n != 4 {
		t.Fatalf("partially warm fold ran %d series, want 4", n)
	}
	cold, err := tcache.New(raster, gran, 0, 0).JoinContext(ctx, window(0, 14))
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "partially-warm-vs-cold", got, cold)
}

// TestAvgFoldReusesSumPartials: AVG and SUM partials of one attribute and
// filters are the same stats, so an AVG fold over a window a SUM fold just
// cached recomputes no slab and answers bit for bit as a cold AVG fold.
func TestAvgFoldReusesSumPartials(t *testing.T) {
	ps := buildTemporalScene(t, 3000, 41)
	rs := queryRegions(rand.New(rand.NewSource(43)))
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))
	const gran = 1800
	window := func(agg core.Agg) core.Request {
		return core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v",
			Filters: []core.Filter{{Attr: "w", Min: 5, Max: 55}},
			Time:    &core.TimeFilter{Start: 3 * gran, End: 17 * gran}}
	}
	ctx := context.Background()
	j := tcache.New(raster, gran, 0, 0)
	if _, err := j.JoinContext(ctx, window(core.Sum)); err != nil {
		t.Fatal(err)
	}
	recomputed := j.SlabsRecomputed()
	got, err := j.JoinContext(ctx, window(core.Avg))
	if err != nil {
		t.Fatal(err)
	}
	if n := j.SlabsRecomputed() - recomputed; n != 0 {
		t.Fatalf("AVG fold after a SUM fold recomputed %d slabs, want 0", n)
	}
	cold, err := tcache.New(raster, gran, 0, 0).JoinContext(ctx, window(core.Avg))
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "avg-from-sum-vs-cold-avg", got, cold)
}

// TestMinMaxEpsilonFoldOneSeriesPerRun: MIN/MAX, the ε mode and a canvas
// tiled by the device fold one series per missing run, like every other
// request, and equal the per-slab fold.
func TestMinMaxEpsilonFoldOneSeriesPerRun(t *testing.T) {
	ps := buildTemporalScene(t, 2000, 31)
	rs := queryRegions(rand.New(rand.NewSource(37)))
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
		{"tiled-max", core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96),
			core.WithDevice(gpu.New(gpu.WithMaxTextureSize(32)))),
			core.Request{Points: ps, Regions: rs, Agg: core.Max, Attr: "v", Time: tf}},
	} {
		j := tcache.New(tc.rj, gran, 0, 0)
		ctx, joins := joinCounter()
		// Warm the middle slab: the cold fold then has two missing runs.
		mid := tc.req
		mid.Time = &core.TimeFilter{Start: 5 * gran, End: 6 * gran}
		if _, err := j.JoinContext(ctx, mid); err != nil {
			t.Fatal(err)
		}
		got, err := j.JoinContext(ctx, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if n := joins(); n != 1+2 {
			t.Fatalf("%s: %d series, want 3", tc.name, n)
		}
		if tc.name == "tiled-max" && got.Tiles < 2 {
			t.Fatalf("tiled-max ran on %d tile", got.Tiles)
		}
		requireSame(t, tc.name, got, perSlabFold(t, tc.rj, tc.req, gran))
	}
}

// TestAppendMidFoldFilesLatePartials: an append that publishes a grown set
// between a fold's series and its puts leaves the fold's partials filed
// under the snapshot it read — the sealed slabs under the set's lineage,
// the open slab holding the latest timestamp under its stamp. The next fold
// over the grown set reuses every sealed partial, recomputes the open slab
// the tail landed in, and equals a cold fold of the grown set.
func TestAppendMidFoldFilesLatePartials(t *testing.T) {
	ps := buildTemporalScene(t, 3000, 43)
	rs := queryRegions(rand.New(rand.NewSource(47)))
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))
	const gran = 3600
	j := tcache.New(raster, gran, 0, 0)

	// The tail lands in the window's last slab, the one holding the set's
	// latest timestamp.
	_, last, _ := ps.TimeRange()
	if last/gran != 47 {
		t.Fatalf("latest timestamp %d outside the window's last slab", last)
	}
	tail := &data.PointSet{Name: ps.Name, X: []float64{500, 510}, Y: []float64{500, 490},
		T:     []int64{last, last},
		Attrs: []data.Column{{Name: "v", Values: []float64{1, 2}}, {Name: "w", Values: []float64{3, 4}}}}
	var grown *data.PointSet
	ctx := &onFirstPoll{Context: context.Background(), after: func() {
		var err error
		if grown, err = ps.AppendCOW(tail); err != nil {
			t.Error(err)
		}
	}}
	window := func(p *data.PointSet) core.Request {
		return core.Request{Points: p, Regions: rs, Agg: core.Avg, Attr: "w",
			Time: &core.TimeFilter{Start: 40 * gran, End: 48 * gran}}
	}
	if _, err := j.JoinContext(ctx, window(ps)); err != nil {
		t.Fatal(err)
	}
	if grown == nil {
		t.Fatal("the append never ran mid-fold")
	}

	reused, recomputed := j.SlabsReused(), j.SlabsRecomputed()
	got, err := j.JoinContext(ctx, window(grown))
	if err != nil {
		t.Fatal(err)
	}
	if n, m := j.SlabsReused()-reused, j.SlabsRecomputed()-recomputed; n != 7 || m != 1 {
		t.Fatalf("fold over the grown set reused %d and recomputed %d slabs, want 7 and 1", n, m)
	}
	cold, err := tcache.New(raster, gran, 0, 0).JoinContext(ctx, window(grown))
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "after-mid-fold-append", got, cold)
}

// TestSeriesFoldFaultSite: a cold fold through series passes the core.join
// site once per missing run, not once per slab, MIN included; an injected
// fault there fails the fold and caches nothing.
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
	if calls := reg.Counts()["core.join"][0]; calls != 2 {
		t.Fatalf("MIN fold passed core.join %d times, want 1", calls-1)
	}

	reg.Set("core.join", fault.Rule{Prob: 1, Kind: fault.Error})
	j := tcache.New(raster, gran, 0, 0)
	if _, err := j.JoinContext(ctx, req); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted fold returned %v, want the injected error", err)
	}
	if st := j.CacheStats(); st.Entries != 0 {
		t.Fatalf("faulted fold cached %d partials", st.Entries)
	}
}

// TestEmptyDataSetFold: over a data set with no points the series fold
// reports what every per-slab join does — zero canvas dimensions.
func TestEmptyDataSetFold(t *testing.T) {
	empty := &data.PointSet{Name: "empty", X: []float64{}, Y: []float64{}, T: []int64{},
		Attrs: []data.Column{{Name: "w", Values: []float64{}}}}
	rs := queryRegions(rand.New(rand.NewSource(61)))
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))
	ctx, joins := joinCounter()
	req := core.Request{Points: empty, Regions: rs, Agg: core.Sum, Attr: "w",
		Time: &core.TimeFilter{Start: 0, End: 4 * 3600}}
	got, err := tcache.New(raster, 3600, 0, 0).JoinContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if n := joins(); n != 1 || got.CanvasW != 0 || got.Tiles != 0 {
		t.Fatalf("empty fold: %d series, result %+v", n, got)
	}
	requireSame(t, "empty", got, perSlabFold(t, raster, req, 3600))
}
