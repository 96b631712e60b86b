package urbane

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/gpu"
)

// buildTestFramework registers two synthetic data sets and two layers over
// a 1000x1000 world.
func buildTestFramework(t testing.TB, opts ...core.RJOption) (*Framework, *data.PointSet, *data.RegionSet) {
	t.Helper()
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(77))
	mk := func(name string, n int) *data.PointSet {
		ps := &data.PointSet{Name: name,
			X: make([]float64, n), Y: make([]float64, n), T: make([]int64, n)}
		fares := make([]float64, n)
		for i := 0; i < n; i++ {
			ps.X[i] = rng.Float64() * 1000
			ps.Y[i] = rng.Float64() * 1000
			ps.T[i] = int64(rng.Intn(8 * 3600))
			fares[i] = rng.Float64() * 40
		}
		ps.Attrs = []data.Column{{Name: "fare", Values: fares}}
		ps.SortByTime()
		return ps
	}
	taxi := mk("taxi", 3000)
	c311 := mk("311", 1500)
	nbhd := data.VoronoiRegions("nbhd", bounds, 12, 9, data.VoronoiOptions{JitterFrac: 0.06})
	grid := data.GridRegions("grid", bounds, 4, 4)

	f := New(core.NewRasterJoin(append([]core.RJOption{
		core.WithMode(core.Accurate), core.WithResolution(512)}, opts...)...))
	for _, ps := range []*data.PointSet{taxi, c311} {
		if err := f.AddPointSet(ps); err != nil {
			t.Fatal(err)
		}
	}
	for _, rs := range []*data.RegionSet{nbhd, grid} {
		if err := f.AddRegionSet(rs); err != nil {
			t.Fatal(err)
		}
	}
	return f, taxi, nbhd
}

func TestRegistry(t *testing.T) {
	f, taxi, nbhd := buildTestFramework(t)
	if ps, ok := f.PointSet("taxi"); !ok || ps != taxi {
		t.Error("PointSet lookup failed")
	}
	if rs, ok := f.RegionSet("nbhd"); !ok || rs != nbhd {
		t.Error("RegionSet lookup failed")
	}
	if _, ok := f.PointSet("nope"); ok {
		t.Error("unknown point set should miss")
	}
	if len(f.PointSetNames()) != 2 || len(f.RegionSetNames()) != 2 {
		t.Errorf("names = %v / %v", f.PointSetNames(), f.RegionSetNames())
	}
	// Duplicates rejected.
	if err := f.AddPointSet(taxi); err == nil {
		t.Error("duplicate point set should be rejected")
	}
	if err := f.AddRegionSet(nbhd); err == nil {
		t.Error("duplicate region set should be rejected")
	}
	// Invalid inputs rejected.
	if err := f.AddPointSet(&data.PointSet{Name: "bad", X: []float64{1}}); err == nil {
		t.Error("invalid point set should be rejected")
	}
	if err := f.AddPointSet(&data.PointSet{}); err == nil {
		t.Error("unnamed point set should be rejected")
	}
	if err := f.AddRegionSet(&data.RegionSet{}); err == nil {
		t.Error("unnamed region set should be rejected")
	}
	bad := &data.RegionSet{Name: "bad", Regions: []data.Region{{Poly: geom.Polygon{}}}}
	if err := f.AddRegionSet(bad); err == nil {
		t.Error("degenerate region should be rejected")
	}
}

func TestFrameworkQuery(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	exec, err := f.QueryContext(context.Background(), "SELECT COUNT(*) FROM taxi, nbhd GROUP BY id")
	if err != nil {
		t.Fatal(err)
	}
	if exec.Result.TotalCount() == 0 {
		t.Error("query found no points")
	}
	if !strings.HasPrefix(exec.Result.Algorithm, "raster-join") {
		t.Errorf("algorithm = %s", exec.Result.Algorithm)
	}
	if _, err := f.QueryContext(context.Background(), "SELECT COUNT(*) FROM nope, nbhd"); err == nil {
		t.Error("unknown data set should fail")
	}
}

func TestFrameworkCubeRouting(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	if _, err := f.BuildCube("taxi", "nbhd", 3600, []string{"fare"}); err != nil {
		t.Fatal(err)
	}
	exec, err := f.QueryContext(context.Background(), "SELECT COUNT(*) FROM taxi, nbhd")
	if err != nil {
		t.Fatal(err)
	}
	if exec.Result.Algorithm != "pre-aggregation-cube" {
		t.Errorf("canned query used %s, want cube", exec.Result.Algorithm)
	}
	// Ad-hoc filter cannot use the cube.
	exec, err = f.QueryContext(context.Background(), "SELECT COUNT(*) FROM taxi, nbhd WHERE fare BETWEEN 5 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(exec.Result.Algorithm, "raster-join") {
		t.Errorf("ad-hoc query used %s, want raster join", exec.Result.Algorithm)
	}
	// Cube build errors.
	if _, err := f.BuildCube("nope", "nbhd", 0, nil); err == nil {
		t.Error("unknown dataset should fail cube build")
	}
	if _, err := f.BuildCube("taxi", "nope", 0, nil); err == nil {
		t.Error("unknown layer should fail cube build")
	}
}

func TestMapView(t *testing.T) {
	f, taxi, _ := buildTestFramework(t)
	ch, err := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd", Agg: core.Count})
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Values) != 12 {
		t.Fatalf("choropleth has %d values, want 12", len(ch.Values))
	}
	var total float64
	for _, v := range ch.Values {
		total += v.Value
		if v.Value < ch.Min-1e-9 || v.Value > ch.Max+1e-9 {
			t.Errorf("value %v outside [%v,%v]", v.Value, ch.Min, ch.Max)
		}
	}
	// All points fall inside the jittered partition, up to boundary ties.
	if math.Abs(total-float64(taxi.Len())) > float64(taxi.Len())/20 {
		t.Errorf("total = %v, want ~%d", total, taxi.Len())
	}
	if ch.Elapsed <= 0 || ch.Algorithm == "" {
		t.Error("metadata missing")
	}
	// Errors.
	if _, err := f.MapViewContext(context.Background(), Selection{Dataset: "nope", Layer: "nbhd"}); err == nil {
		t.Error("unknown data set should fail")
	}
	if _, err := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nope"}); err == nil {
		t.Error("unknown layer should fail")
	}
	if _, err := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd",
		Agg: core.Sum, Attr: "nope"}); err == nil {
		t.Error("bad attribute should fail")
	}
}

func TestMapViewFiltersChangeResult(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	all, err := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd", Agg: core.Count})
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd", Agg: core.Count,
		Filters: []core.Filter{{Attr: "fare", Min: 0, Max: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	var totalAll, totalCheap float64
	for k := range all.Values {
		totalAll += all.Values[k].Value
		totalCheap += cheap.Values[k].Value
	}
	if totalCheap >= totalAll {
		t.Errorf("filtered total %v should be < unfiltered %v", totalCheap, totalAll)
	}
	if totalCheap == 0 {
		t.Error("filter swallowed everything")
	}
}

func TestExplore(t *testing.T) {
	f, _, nbhd := buildTestFramework(t)
	req := ExplorationRequest{
		Selection: Selection{Layer: "nbhd", Agg: core.Count},
		Datasets:  []string{"taxi", "311"},
		Start:     0, End: 8 * 3600, Bins: 8,
		RegionIDs: []int{nbhd.Regions[0].ID, nbhd.Regions[3].ID},
	}
	ex, err := f.ExploreContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.BinStarts) != 8 {
		t.Fatalf("bins = %d", len(ex.BinStarts))
	}
	if len(ex.Series) != 4 { // 2 data sets x 2 regions
		t.Fatalf("series = %d, want 4", len(ex.Series))
	}
	for _, s := range ex.Series {
		if len(s.Values) != 8 {
			t.Fatalf("series %s/%d has %d values", s.Dataset, s.RegionID, len(s.Values))
		}
	}
	// Bin totals for one region must equal the untimed count for it.
	ch, _ := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd", Agg: core.Count})
	var fromSeries float64
	for _, s := range ex.Series {
		if s.Dataset == "taxi" && s.RegionID == nbhd.Regions[0].ID {
			for _, v := range s.Values {
				fromSeries += v
			}
		}
	}
	if fromSeries != ch.Values[0].Value {
		t.Errorf("series total %v != map view value %v", fromSeries, ch.Values[0].Value)
	}
	// Errors.
	if _, err := f.ExploreContext(context.Background(), ExplorationRequest{Selection: Selection{Layer: "nbhd"}, Datasets: []string{"taxi"}, Start: 0, End: 100, Bins: 0}); err == nil {
		t.Error("zero bins should fail")
	}
	if _, err := f.ExploreContext(context.Background(), ExplorationRequest{Selection: Selection{Layer: "nbhd"}, Datasets: []string{"taxi"}, Start: 100, End: 100, Bins: 2}); err == nil {
		t.Error("empty range should fail")
	}
	if _, err := f.ExploreContext(context.Background(), ExplorationRequest{Selection: Selection{Layer: "nbhd"}, Datasets: []string{"nope"}, Start: 0, End: 100, Bins: 2}); err == nil {
		t.Error("unknown data set should fail")
	}
	req.RegionIDs = []int{99999}
	if _, err := f.ExploreContext(context.Background(), req); err == nil {
		t.Error("unknown region id should fail")
	}
}

// TestExploreFastPathMatchesFallback: the exploration view's one series per
// data set equals the per-bin path — one ExecuteContext per bin, the path
// cube-servable selections take — value for value, for a resolution-driven
// and an ε-mode raster joiner, on one canvas and tiled by the device.
func TestExploreFastPathMatchesFallback(t *testing.T) {
	src, _, _ := buildTestFramework(t)
	taxi, _ := src.PointSet("taxi")
	nbhd, _ := src.RegionSet("nbhd")
	req := ExplorationRequest{
		Selection: Selection{Layer: "nbhd", Agg: core.Max, Attr: "fare"},
		Datasets:  []string{"taxi"},
		Start:     0, End: 8 * 3600, Bins: 6,
		RegionIDs: []int{0, 1},
	}
	for _, rj := range []*core.RasterJoin{
		core.NewRasterJoin(core.WithResolution(512)),
		core.NewRasterJoin(core.WithEpsilon(1000.0/512*1.415), core.WithMode(core.Accurate)),
		core.NewRasterJoin(core.WithResolution(512), core.WithDevice(gpu.New(gpu.WithMaxTextureSize(128)))),
	} {
		f := New(rj)
		if err := f.AddPointSet(taxi); err != nil {
			t.Fatal(err)
		}
		if err := f.AddRegionSet(nbhd); err != nil {
			t.Fatal(err)
		}
		ex, err := f.ExploreContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		width := (req.End - req.Start) / int64(req.Bins)
		nonzero := false
		for b := 0; b < req.Bins; b++ {
			res, err := f.ExecuteContext(context.Background(), core.Request{Points: taxi, Regions: nbhd,
				Agg: req.Agg, Attr: req.Attr,
				Time: &core.TimeFilter{Start: ex.BinStarts[b], End: ex.BinStarts[b] + width}})
			if err != nil {
				t.Fatal(err)
			}
			for si, k := range req.RegionIDs {
				got, want := ex.Series[si].Values[b], res.Value(k, req.Agg)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s bin %d region %d: series %v, per-bin %v", rj.Name(), b, k, got, want)
				}
				nonzero = nonzero || got != 0
			}
		}
		if !nonzero {
			t.Fatalf("%s: empty exploration", rj.Name())
		}
	}
}

// The framework serves concurrent view requests (the demo's many-clients
// case); results must match the serial answers.
func TestConcurrentViews(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	want, err := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd", Agg: core.Count})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < 5; i++ {
				ch, err := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd", Agg: core.Count})
				if err != nil {
					errs <- err
					return
				}
				for k := range ch.Values {
					if ch.Values[k].Value != want.Values[k].Value {
						errs <- fmt.Errorf("concurrent result diverged at region %d", k)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// rankGolden is the SHA-256 of every score of TestRankGolden's rankings,
// recorded before rank ran each raster metric as its own join.
const rankGolden = "6edac6d62efb0250bdcaba1680391a993ad78f0afd49a5517a62f45eed0ed8e5"

// TestRankGolden: the rankings of two metric sets — COUNT with AVG(fare),
// and SUM(fare) under a per-metric filter with a time-windowed COUNT — over
// both layers, without and with a cube on nbhd, hash bit for bit to the
// recorded digest: every score's ID, name, distance and values in rank
// order. The cube materializes counts only: its float sums merge one
// partial per GOMAXPROCS shard, so a cube-served AVG would tie the digest
// to the core count.
func TestRankGolden(t *testing.T) {
	sets := [][]MetricSpec{
		{
			{Name: "activity", Selection: Selection{Dataset: "taxi", Agg: core.Count}},
			{Name: "avg-fare", Selection: Selection{Dataset: "taxi", Agg: core.Avg, Attr: "fare"}},
		},
		{
			{Name: "big-fares", Selection: Selection{Dataset: "taxi", Agg: core.Sum, Attr: "fare",
				Filters: []core.Filter{{Attr: "fare", Min: 10, Max: 30}}}},
			{Name: "morning", Selection: Selection{Dataset: "taxi", Agg: core.Count,
				Time: &core.TimeFilter{Start: 3600, End: 5 * 3600}}},
		},
	}
	h := sha256.New()
	for _, withCube := range []bool{false, true} {
		f, _, _ := buildTestFramework(t)
		if withCube {
			if _, err := f.BuildCube("taxi", "nbhd", 3600, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, layer := range []string{"nbhd", "grid"} {
			rs, _ := f.RegionSet(layer)
			for _, metrics := range sets {
				for _, m := range metrics {
					creq, err := f.resolve(m.Selection, rs)
					if err != nil {
						t.Fatal(err)
					}
					if want := withCube && layer == "nbhd" && m.Agg == core.Count; f.cubeServable(creq) != want {
						t.Fatalf("%s over %s: cube-servable %v, want %v", m.Name, layer, !want, want)
					}
				}
				scores, err := f.RankSimilarContext(context.Background(), layer, rs.Regions[2].ID, metrics)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range scores {
					h.Write(binary.LittleEndian.AppendUint64(nil, uint64(s.ID)))
					h.Write([]byte(s.Name))
					for _, v := range append([]float64{s.Distance}, s.Values...) {
						h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rankGolden {
		t.Errorf("rank digest %s, want %s", got, rankGolden)
	}
}

func TestRankSimilar(t *testing.T) {
	f, _, nbhd := buildTestFramework(t)
	metrics := []MetricSpec{
		{Name: "activity", Selection: Selection{Dataset: "taxi", Agg: core.Count}},
		{Name: "avg-fare", Selection: Selection{Dataset: "taxi", Agg: core.Avg, Attr: "fare"}},
		{Name: "complaints", Selection: Selection{Dataset: "311", Agg: core.Count}},
	}
	target := nbhd.Regions[2].ID
	scores, err := f.RankSimilarContext(context.Background(), "nbhd", target, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != nbhd.Len()-1 {
		t.Fatalf("scores = %d, want %d", len(scores), nbhd.Len()-1)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i-1].Distance > scores[i].Distance {
			t.Fatal("scores not sorted by distance")
		}
	}
	for _, s := range scores {
		if s.ID == target {
			t.Error("target should be excluded from its own ranking")
		}
		if len(s.Values) != len(metrics) {
			t.Errorf("score %d has %d features", s.ID, len(s.Values))
		}
	}
	// Errors.
	if _, err := f.RankSimilarContext(context.Background(), "nbhd", target, nil); err == nil {
		t.Error("no metrics should fail")
	}
	if _, err := f.RankSimilarContext(context.Background(), "nope", target, metrics); err == nil {
		t.Error("unknown layer should fail")
	}
	if _, err := f.RankSimilarContext(context.Background(), "nbhd", 12345, metrics); err == nil {
		t.Error("unknown target should fail")
	}
	bad := []MetricSpec{{Name: "x", Selection: Selection{Dataset: "nope", Agg: core.Count}}}
	if _, err := f.RankSimilarContext(context.Background(), "nbhd", target, bad); err == nil {
		t.Error("unknown metric data set should fail")
	}
}
