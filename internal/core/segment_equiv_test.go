package core_test

// Segment-vs-RAM equivalence: every joiner, executed against a columnar
// segment store (block-at-a-time, zone-pruned, only the columns the query
// declares read, under a byte-bounded cache), must produce results
// bit-identical to the in-RAM array path — across modes, aggregates,
// filters, worker counts, pruning on/off, and cold/warm caches. These are the acceptance tests of the
// PointSource refactor: the store changes where bytes live, never what any
// query answers.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/segment"
	"repro/internal/shard"
)

// equivScene builds a clustered point set with sorted timestamps, a uniform
// attribute "v", a time-correlated attribute "hot" (so tight filters on it
// make whole blocks zone-prunable), destination columns for the flow join,
// and a Voronoi partition layer.
func equivScene(np, nr int, seed int64) (*data.PointSet, *data.RegionSet) {
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{Name: "trips",
		X: make([]float64, np), Y: make([]float64, np), T: make([]int64, np)}
	v := make([]float64, np)
	hot := make([]float64, np)
	dx := make([]float64, np)
	dy := make([]float64, np)
	for i := 0; i < np; i++ {
		if rng.Float64() < 0.5 {
			ps.X[i] = 300 + rng.NormFloat64()*150
			ps.Y[i] = 600 + rng.NormFloat64()*150
		} else {
			ps.X[i] = rng.Float64() * 1000
			ps.Y[i] = rng.Float64() * 1000
		}
		ps.X[i] = math.Min(999.9, math.Max(0.1, ps.X[i]))
		ps.Y[i] = math.Min(999.9, math.Max(0.1, ps.Y[i]))
		ps.T[i] = int64(i * 3)
		v[i] = 1 + rng.Float64()*9
		// hot tracks the (sorted) timestamp, so any narrow range selects a
		// contiguous sliver of blocks and zone maps eliminate the rest.
		hot[i] = float64(i) + rng.Float64()
		dx[i] = rng.Float64() * 1000
		dy[i] = rng.Float64() * 1000
	}
	ps.Attrs = []data.Column{
		{Name: "v", Values: v},
		{Name: "hot", Values: hot},
		{Name: data.DropoffXAttr, Values: dx},
		{Name: data.DropoffYAttr, Values: dy},
	}
	rs := data.VoronoiRegions("cells", bounds, nr, seed+1,
		data.VoronoiOptions{JitterFrac: 0.08})
	return ps, rs
}

// equivStore materializes ps into a temporary segment file and opens it.
func equivStore(t *testing.T, ps *data.PointSet, blockSize int, cacheBytes int64) *segment.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), ps.Name+".useg")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := segment.Write(file, ps, segment.WithBlockSize(blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := segment.Open(path, segment.WithCacheBytes(cacheBytes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// assertStatsBits requires bit-exact equality between two stat slices —
// Count, and the raw float bits of Sum/Min/Max.
func assertStatsBits(t *testing.T, got, want []core.RegionStat, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d regions", label, len(got), len(want))
	}
	for k := range got {
		if got[k].Count != want[k].Count {
			t.Fatalf("%s: region %d count %d, want %d", label, k, got[k].Count, want[k].Count)
		}
		for _, f := range [][3]float64{
			{got[k].Sum, want[k].Sum, 0}, {got[k].Min, want[k].Min, 1}, {got[k].Max, want[k].Max, 2},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("%s: region %d field %v: %v != %v (bit mismatch)",
					label, k, f[2], f[0], f[1])
			}
		}
	}
}

// equivBudgets are the store cache budgets the equivalence suites run at: a
// warm cache, and none — every column read from the file on every touch.
var equivBudgets = []int64{1 << 20, 0}

// unsortedCopy returns ps with each point swapped with one up to 700
// positions later: not time-sorted, so a time window is a residual
// predicate over T, yet local enough that zone maps still prune.
func unsortedCopy(ps *data.PointSet, seed int64) *data.PointSet {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, ps.Len())
	for i := range idx {
		idx[i] = i
	}
	for i := range idx {
		j := min(len(idx)-1, i+rng.Intn(700))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return ps.Select(idx)
}

type reqVariant struct {
	name     string
	ram, seg core.Request
}

// reqVariants is the aggregate/filter/time matrix every joiner config
// runs: over ps/st, and time-windowed over the unsorted copy us/ust. Some
// aggregate one attribute while filtering on another, so a scan that
// forgot to read either column would differ from the in-RAM path.
func reqVariants(ps, us *data.PointSet, rs *data.RegionSet, st, ust *segment.Store) []reqVariant {
	mkOn := func(ps *data.PointSet, st *segment.Store) func(string, core.Agg, string, []core.Filter, *core.TimeFilter) reqVariant {
		return func(name string, agg core.Agg, attr string, fs []core.Filter, tf *core.TimeFilter) reqVariant {
			ram := core.Request{Points: ps, Regions: rs, Agg: agg, Attr: attr, Filters: fs, Time: tf}
			seg := ram
			seg.Source = st
			return reqVariant{name, ram, seg}
		}
	}
	mk, mkU := mkOn(ps, st), mkOn(us, ust)
	n := float64(ps.Len())
	return []reqVariant{
		mk("count", core.Count, "", nil, nil),
		mk("sum", core.Sum, "v", nil, nil),
		mk("avg", core.Avg, "v", nil, nil),
		mk("min", core.Min, "v", nil, nil),
		mk("max", core.Max, "v", nil, nil),
		mk("count-tight-filter", core.Count, "",
			[]core.Filter{{Attr: "hot", Min: 0.2 * n, Max: 0.23 * n}}, nil),
		mk("sum-v-filter-hot", core.Sum, "v",
			[]core.Filter{{Attr: "hot", Min: 0.2 * n, Max: 0.6 * n}}, nil),
		mk("sum-filter-time", core.Sum, "v",
			[]core.Filter{{Attr: "v", Min: 2, Max: 8}},
			&core.TimeFilter{Start: int64(0.3 * n * 3), End: int64(0.6 * n * 3)}),
		mk("count-time", core.Count, "", nil,
			&core.TimeFilter{Start: int64(0.8 * n * 3), End: int64(0.85 * n * 3)}),
		mkU("unsorted-count-time", core.Count, "", nil,
			&core.TimeFilter{Start: int64(0.4 * n * 3), End: int64(0.7 * n * 3)}),
		mkU("unsorted-max-v-filter-hot-time", core.Max, "v",
			[]core.Filter{{Attr: "hot", Min: 0.1 * n, Max: 0.9 * n}},
			&core.TimeFilter{Start: int64(0.2 * n * 3), End: int64(0.5 * n * 3)}),
	}
}

// TestSegmentJoinEquivalence sweeps the joiner configuration space: both
// modes, pruning on and off, one and several workers, cache on and off —
// segment-backed results must match the in-RAM path bit for bit.
func TestSegmentJoinEquivalence(t *testing.T) {
	ps, rs := equivScene(5000, 8, 42)
	us := unsortedCopy(ps, 43)
	for _, budget := range equivBudgets {
		st, ust := equivStore(t, ps, 512, budget), equivStore(t, us, 512, budget)
		if ust.TimeSorted() {
			t.Fatal("unsorted copy is time-sorted")
		}
		for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
			for _, prune := range []bool{true, false} {
				for _, workers := range []int{1, 3} {
					rj := core.SetBlockPrune(core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
						core.WithWorkers(workers)), prune)
					for _, vr := range reqVariants(ps, us, rs, st, ust) {
						label := fmt.Sprintf("%v/prune=%v/w%d/cache=%d/%s", mode, prune, workers, budget, vr.name)
						ram, err := rj.JoinContext(context.Background(), vr.ram)
						if err != nil {
							t.Fatalf("%s ram: %v", label, err)
						}
						seg, err := rj.JoinContext(context.Background(), vr.seg)
						if err != nil {
							t.Fatalf("%s seg: %v", label, err)
						}
						assertStatsBits(t, seg.Stats, ram.Stats, label)
					}
				}
			}
		}
	}
}

// TestSegmentSeriesEquivalence: the time-binned joiner over a segment
// source matches the in-RAM path bit for bit, per bin and region — on a
// sorted source (bins narrow the range) and an unsorted one (bins are a
// residual predicate over T), with and without a cache.
func TestSegmentSeriesEquivalence(t *testing.T) {
	ps, rs := equivScene(4000, 6, 77)
	us := unsortedCopy(ps, 78)
	rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(256))
	for _, budget := range equivBudgets {
		for _, set := range []*data.PointSet{ps, us} {
			st := equivStore(t, set, 512, budget)
			for _, agg := range []struct {
				agg    core.Agg
				attr   string
				filter core.Filter
			}{
				{core.Count, "", core.Filter{Attr: "v", Min: 1, Max: 9}},
				{core.Sum, "v", core.Filter{Attr: "v", Min: 1, Max: 9}},
				{core.Sum, "v", core.Filter{Attr: "hot", Min: 100, Max: 3900}},
			} {
				req := core.Request{Points: set, Regions: rs, Agg: agg.agg, Attr: agg.attr,
					Filters: []core.Filter{agg.filter}}
				ram, err := rj.SeriesJoinContext(context.Background(), req, 0, int64(ps.Len()*3), 6)
				if err != nil {
					t.Fatal(err)
				}
				req.Source = st
				seg, err := rj.SeriesJoinContext(context.Background(), req, 0, int64(ps.Len()*3), 6)
				if err != nil {
					t.Fatal(err)
				}
				if len(seg) != len(ram) {
					t.Fatalf("%v: bins %d vs %d", agg.agg, len(seg), len(ram))
				}
				label := fmt.Sprintf("%v/%s/sorted=%v/cache=%d", agg.agg, agg.filter.Attr, st.TimeSorted(), budget)
				for b := range seg {
					assertStatsBits(t, seg[b].Stats, ram[b].Stats, label)
				}
			}
		}
	}
}

// TestSegmentDensityEquivalence: the density pass (heatmaps and tiles) over
// a segment source folds the same grid bit for bit as in RAM — weighted by
// one attribute while filtered on another, time-windowed on a sorted and an
// unsorted source, with and without a cache.
func TestSegmentDensityEquivalence(t *testing.T) {
	ps, _ := equivScene(4000, 6, 31)
	us := unsortedCopy(ps, 32)
	rj := core.NewRasterJoin()
	world := geom.BBox{MinX: 100, MinY: 100, MaxX: 900, MaxY: 800}
	for _, budget := range equivBudgets {
		for _, set := range []*data.PointSet{ps, us} {
			st := equivStore(t, set, 256, budget)
			for _, req := range []core.Request{
				{Points: set, Agg: core.Count},
				{Points: set, Agg: core.Sum, Attr: "v",
					Filters: []core.Filter{{Attr: "hot", Min: 500, Max: 3500}},
					Time:    &core.TimeFilter{Start: 1500, End: 9000}},
			} {
				ram, _, err := rj.DensityContext(context.Background(), req, world, 64, 48)
				if err != nil {
					t.Fatal(err)
				}
				req.Source = st
				seg, _, err := rj.DensityContext(context.Background(), req, world, 64, 48)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ram {
					if math.Float64bits(seg[i]) != math.Float64bits(ram[i]) {
						t.Fatalf("%v/sorted=%v/cache=%d: cell %d = %v, want %v",
							req.Agg, st.TimeSorted(), budget, i, seg[i], ram[i])
					}
				}
			}
		}
	}
}

// TestSegmentStreamEquivalence: on one scene and request at a 64-point
// batch, every points-first variant must land on the same Stats: the
// monolithic join, a join over a segment streamed to disk in three appended
// batches, a one-bin series, and the scattered join at 1, 2 and 4 shards
// (shards × segments × small batches). The request sums one attribute
// filtered on another; everything runs with and without a cache.
func TestSegmentStreamEquivalence(t *testing.T) {
	ps, rs := equivScene(3000, 6, 99)
	filters := []core.Filter{{Attr: "hot", Min: 200, Max: 2700}}
	for _, budget := range equivBudgets {
		st := equivStore(t, ps, 256, budget)
		ctx := context.Background()
		rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(256),
			core.WithPointBatch(64))
		req := core.Request{Points: ps, Source: st, Regions: rs, Agg: core.Sum, Attr: "v",
			Filters: filters}
		want, err := rj.JoinContext(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		type variant struct {
			name string
			run  func() ([]core.RegionStat, error)
		}
		variants := []variant{
			{"segment appended in 3 batches", func() ([]core.RegionStat, error) {
				path := filepath.Join(t.TempDir(), "stream.useg")
				file, err := os.Create(path)
				if err != nil {
					return nil, err
				}
				w := segment.NewWriter(file, segment.WithBlockSize(256))
				n := ps.Len()
				for _, cut := range [][2]int{{0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n}} {
					batch := make([]int, cut[1]-cut[0])
					for i := range batch {
						batch[i] = cut[0] + i
					}
					if err := w.Append(ps.Select(batch)); err != nil {
						return nil, err
					}
				}
				if err := w.Close(); err != nil {
					return nil, err
				}
				if err := file.Close(); err != nil {
					return nil, err
				}
				appended, err := segment.Open(path, segment.WithCacheBytes(budget))
				if err != nil {
					return nil, err
				}
				defer appended.Close()
				r := req
				r.Source = appended
				res, err := rj.JoinContext(ctx, r)
				if err != nil {
					return nil, err
				}
				return res.Stats, nil
			}},
			{"1-bin series", func() ([]core.RegionStat, error) {
				sr, err := rj.SeriesJoinContext(ctx, req, 0, int64(ps.Len()*3), 1)
				if err != nil {
					return nil, err
				}
				return sr[0].Stats, nil
			}},
		}
		for _, n := range []int{1, 2, 4} {
			variants = append(variants, variant{fmt.Sprintf("scattered over %d shards", n),
				func() ([]core.RegionStat, error) {
					res, err := shard.New(rj, n).JoinContext(ctx, req)
					if err != nil {
						return nil, err
					}
					return res.Stats, nil
				}})
		}
		for _, v := range variants {
			got, err := v.run()
			if err != nil {
				t.Fatalf("%s/cache=%d: %v", v.name, budget, err)
			}
			if !reflect.DeepEqual(got, want.Stats) {
				t.Errorf("%s/cache=%d: Stats differ from JoinContext\n got %+v\nwant %+v", v.name, budget, got, want.Stats)
			}
		}
	}
}

// TestSegmentFlowEquivalence: the OD matrix over a segment source matches
// the in-RAM path exactly, including the Filtered/Dropped accounting — with
// a filter on an attribute other than the dropoff pair, a residual time
// window on the unsorted copy, and with and without a cache.
func TestSegmentFlowEquivalence(t *testing.T) {
	ps, rs := equivScene(3000, 6, 321)
	us := unsortedCopy(ps, 322)
	for _, budget := range equivBudgets {
		for _, set := range []*data.PointSet{ps, us} {
			st := equivStore(t, set, 512, budget)
			for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
				rj := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256))
				req := core.Request{Points: set, Regions: rs, Agg: core.Count,
					Filters: []core.Filter{{Attr: "v", Min: 0, Max: 6}}}
				if set == us {
					req.Time = &core.TimeFilter{Start: 1500, End: 7500}
				}
				ram, err := rj.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
				if err != nil {
					t.Fatal(err)
				}
				sreq := req
				sreq.Source = st
				seg, err := rj.FlowJoinContext(context.Background(), sreq, data.DropoffXAttr, data.DropoffYAttr)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v/sorted=%v/cache=%d", mode, st.TimeSorted(), budget)
				if seg.Dropped != ram.Dropped || seg.Filtered != ram.Filtered {
					t.Fatalf("%s: dropped/filtered %d/%d vs %d/%d",
						label, seg.Dropped, seg.Filtered, ram.Dropped, ram.Filtered)
				}
				if len(seg.Counts) != len(ram.Counts) {
					t.Fatalf("%s: %d vs %d OD cells", label, len(seg.Counts), len(ram.Counts))
				}
				for cell, n := range ram.Counts {
					if seg.Counts[cell] != n {
						t.Fatalf("%s: cell %d: %d vs %d", label, cell, seg.Counts[cell], n)
					}
				}
			}
		}
	}
}

// TestFlowJoinInvertedWindow: a time window whose start is after its end
// selects no point. On a time-sorted source the binary searches put the
// window's start index past its end index; the scan must clamp that range
// to empty rather than count its negative length as dropped points, on the
// in-RAM source and on a segment store alike.
func TestFlowJoinInvertedWindow(t *testing.T) {
	ps, rs := equivScene(3000, 6, 321)
	st := equivStore(t, ps, 512, 1<<20)
	rj := core.NewRasterJoin(core.WithResolution(256))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count,
		Time: &core.TimeFilter{Start: 7500, End: 1500}}
	for _, src := range []data.PointSource{ps.Source(), st} {
		req.Source = src
		got, err := rj.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dropped != 0 || got.Filtered != 0 || len(got.Counts) != 0 {
			t.Errorf("%T: dropped/filtered = %d/%d, %d OD cells; want an empty flow",
				src, got.Dropped, got.Filtered, len(got.Counts))
		}
	}
}

// TestFlowTalliesIgnoreStorageOrder: a point outside the time window is
// in neither flow tally, whatever order the points are stored in. A
// time-sorted set leaves such points out of the scanned range; the same
// points reversed (not time-sorted) test them one by one, in RAM and from
// a segment store, and must give the same matrix, Dropped and Filtered —
// with every tenth origin off the canvas (culled) and with and without an
// attribute filter.
func TestFlowTalliesIgnoreStorageOrder(t *testing.T) {
	ps, rs := equivScene(3000, 6, 321)
	for i := 0; i < ps.Len(); i += 10 {
		ps.X[i] = -500
	}
	rev := make([]int, ps.Len())
	for i := range rev {
		rev[i] = ps.Len() - 1 - i
	}
	reversed := ps.Select(rev)
	st := equivStore(t, reversed, 512, 1<<20)
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		rj := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256))
		for _, filters := range [][]core.Filter{nil, {{Attr: "v", Min: 0, Max: 6}}} {
			var want *core.FlowResult
			for _, src := range []data.PointSource{ps.Source(), reversed.Source(), st} {
				req := core.Request{Source: src, Regions: rs, Agg: core.Count, Filters: filters,
					Time: &core.TimeFilter{Start: 1500, End: 4500}}
				got, err := rj.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v/filters=%d/%T/sorted=%v", mode, len(filters), src, src.TimeSorted())
				if filters == nil && got.Filtered != 0 {
					t.Errorf("%s: filtered = %d, want 0 (no attribute filter)", label, got.Filtered)
				}
				if want == nil {
					want = got
					continue
				}
				if got.Total() != want.Total() || got.Dropped != want.Dropped ||
					got.Filtered != want.Filtered || !reflect.DeepEqual(got.Counts, want.Counts) {
					t.Errorf("%s: total/dropped/filtered %d/%d/%d, time-sorted set %d/%d/%d",
						label, got.Total(), got.Dropped, got.Filtered,
						want.Total(), want.Dropped, want.Filtered)
				}
			}
		}
	}
}

// TestSegmentJoinOutOfCore is the bigger-than-budget proof: with a cache
// holding a few blocks' columns, the full file never resides in memory
// (evictions observed, resident bytes under budget) and the join still
// answers bit-identically to the all-in-RAM path.
func TestSegmentJoinOutOfCore(t *testing.T) {
	ps, rs := equivScene(6000, 8, 555)
	// A 256-point column is 2 KiB and SUM(v) reads three per block (X, Y,
	// v); a 20 KiB budget keeps at most ten columns of the 24 blocks.
	st := equivStore(t, ps, 256, 20<<10)
	rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(256))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	ram, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Source = st
	seg, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertStatsBits(t, seg.Stats, ram.Stats, "out-of-core")
	cs := st.CacheStats()
	if cs.Evictions == 0 {
		t.Errorf("no evictions under a ten-column budget: %+v", cs)
	}
	if cs.Bytes > cs.Capacity {
		t.Errorf("resident %d bytes exceeds budget %d", cs.Bytes, cs.Capacity)
	}
}

// TestSegmentCacheColdWarm: the same join answers identically on a cold
// cache, a warm cache, and after unrelated queries churned the cache.
func TestSegmentCacheColdWarm(t *testing.T) {
	ps, rs := equivScene(4000, 6, 777)
	st := equivStore(t, ps, 512, 64<<10)
	rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(256))
	req := core.Request{Points: ps, Source: st, Regions: rs, Agg: core.Sum, Attr: "v",
		Filters: []core.Filter{{Attr: "v", Min: 2, Max: 9}}}
	cold, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertStatsBits(t, warm.Stats, cold.Stats, "cold-vs-warm")
	// Churn with a different query shape, then re-ask.
	if _, err := rj.JoinContext(context.Background(), core.Request{Points: ps, Source: st, Regions: rs, Agg: core.Count,
		Time: &core.TimeFilter{Start: 0, End: 3000}}); err != nil {
		t.Fatal(err)
	}
	again, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertStatsBits(t, again.Stats, cold.Stats, "churned")
	if cs := st.CacheStats(); cs.Hits == 0 {
		t.Errorf("repeated joins produced no cache hits: %+v", cs)
	}
}

// TestSegmentPruneCounters: a tight filter over the time-correlated
// attribute must actually prune blocks (observable via ScanStats), and the
// pruned execution must match the unpruned one bit for bit.
func TestSegmentPruneCounters(t *testing.T) {
	ps, rs := equivScene(6000, 8, 888)
	st := equivStore(t, ps, 256, 1<<20)
	req := core.Request{Points: ps, Source: st, Regions: rs, Agg: core.Count,
		Filters: []core.Filter{{Attr: "hot", Min: 100, Max: 160}}}

	off := core.SetBlockPrune(core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(256)), false)
	want, err := off.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	s0, p0 := core.ScanStats()
	on := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(256))
	got, err := on.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s1, p1 := core.ScanStats()
	assertStatsBits(t, got.Stats, want.Stats, "pruned-vs-unpruned")
	if p1-p0 == 0 {
		t.Errorf("tight filter pruned no blocks (scanned %d)", s1-s0)
	}
	if s1-s0 == 0 {
		t.Error("pruned join scanned no blocks at all")
	}
	if p1-p0 <= (s1 - s0) {
		// With a ~1% selectivity filter over a sorted column, far more
		// blocks must be eliminated than survive.
		t.Errorf("weak pruning: %d pruned vs %d scanned", p1-p0, s1-s0)
	}
}

// TestSegmentJoinCancellation: canceling a segment-backed join mid-pass
// returns the context error and leaks neither canvases nor textures.
func TestSegmentJoinCancellation(t *testing.T) {
	ps, rs := equivScene(100_000, 8, 999)
	st := equivStore(t, ps, 1024, 1<<20)
	dev := gpu.New()
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
		core.WithResolution(512), core.WithPointBatch(256))
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := rj.JoinContext(ctx, core.Request{Points: ps, Source: st, Regions: rs,
		Agg: core.Sum, Attr: "v"})
	if err == nil {
		t.Skip("join completed before the deadline; nothing to assert")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	awaitGoroutines(t, baseline)
	requireDevDrained(t, dev, "after canceled segment join")
}
