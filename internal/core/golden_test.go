package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/raster"
	"repro/internal/shard"
	"repro/internal/workload"
)

// The digests below are SHA-256 sums of results, recorded before the pass
// they cover was last rewritten. Every configuration must reproduce them:
// a refactored pass is bit-identical to the one it replaced, not merely
// close.
const (
	// accurateGolden was recorded before boundary refine moved onto the
	// cached row-edge tables.
	accurateGolden = "9babeda1458b31b11f907cbdd7edc4842371ac81daf62ad93e52431ff15a5da2"
	// The rest were recorded before pass 1 became one loop per block over a
	// hoisted pixel map.
	approximateGolden = "763215e6b44abda85cca2ead819e604dfaf37080207a5fd5e79cb931b065ba83"
	densityGolden     = "e9d5f1341bc28ff1f4d64afe88e44b8fd57184733c61a98f0e91e4e933e5c80e"
	seriesGolden      = "74b0b3f0db61c5ad819d07c432c3fc65be2fcae7facd99f2bcb51faed5dfa686"
	// seriesGridGolden was recorded before the series ran on the join's
	// tile loop; the bins the series then refused — MIN/MAX, ε, tiled
	// canvases — were recorded as one JoinContext per bin.
	seriesGridGolden = "36f7ba64b710055face7311f83ef6d54bd36e4efb3b2450b8c3c50350492aeb9"
	tiledGolden      = "ac082b75348ba2fe1d8f0c46b100112f724274224945200c0c551baf1aa4ae6e"
	// filteredGolden was recorded before pass 1 folded points a chunk and a
	// target at a time and pass 2 folded spans as texture rows. The filtered
	// joins reproduce it from the in-RAM set and from a segment store, local
	// and scattered over shards.
	filteredGolden = "30e6965fe22e7caf1111a9659736079b5e76414c15d63bdbc20a4cfcacbf2889"
	// flowGolden was recorded before the OD pass became a closure-free loop
	// per block over a hoisted pixel map.
	flowGolden = "dc84f1861f5a74e9f40ae72d0f6f7fb38d912ade0c57bfa83dcdcaf203c73182"
)

// writeStats hashes every field of every region stat, bit for bit.
func writeStats(h hash.Hash, stats []core.RegionStat) {
	for _, s := range stats {
		for _, v := range []uint64{uint64(s.Count), math.Float64bits(s.Sum),
			math.Float64bits(s.Min), math.Float64bits(s.Max)} {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
}

// writeFloats hashes a float slice bit for bit.
func writeFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}

// checkDigest fails the test when h's sum is not want.
func checkDigest(t *testing.T, h hash.Hash, want, what string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s: digest %s, want %s", what, got, want)
	}
}

// TestAccurateJoinGolden and TestApproximateJoinGolden: joins of 20 k taxi
// points over the three scene layers, all five aggregates, hash to the
// recorded digest at workers 1, 2 and 4, with 64-point batches (many
// batches and many appends per boundary row) and unbatched.
func TestAccurateJoinGolden(t *testing.T) { joinGolden(t, core.Accurate, accurateGolden) }

func TestApproximateJoinGolden(t *testing.T) {
	joinGolden(t, core.Approximate, approximateGolden)
}

func joinGolden(t *testing.T, mode core.Mode, want string) {
	sc := workload.NYC(20_000, 2009)
	layers := []*data.RegionSet{sc.Neighborhoods, sc.Tracts, sc.Grid}
	aggs := []core.Agg{core.Count, core.Sum, core.Avg, core.Min, core.Max}
	dev := gpu.New()
	for _, batch := range []int{64, 0} {
		for _, workers := range []int{1, 2, 4} {
			opts := []core.RJOption{core.WithDevice(dev), core.WithMode(mode),
				core.WithResolution(1024), core.WithWorkers(workers)}
			if batch > 0 {
				opts = append(opts, core.WithPointBatch(batch))
			}
			rj := core.NewRasterJoin(opts...)
			h := sha256.New()
			for _, rs := range layers {
				for _, agg := range aggs {
					req := core.Request{Points: sc.Taxi, Regions: rs, Agg: agg}
					if agg.NeedsAttr() {
						req.Attr = "fare"
					}
					res, err := rj.JoinContext(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					writeStats(h, res.Stats)
				}
			}
			checkDigest(t, h, want, fmt.Sprintf("%s batch=%d workers=%d", rj.Name(), batch, workers))
		}
	}
}

// filteredRequests are the joins the filtered goldens hash, in order: every
// layer and aggregate over sc's taxi points — read from seg when it is
// non-nil — with the fare filter and January's second week. The filter cuts
// the fare zone of every block, so every point takes the residual predicate.
func filteredRequests(sc *workload.Scene, seg data.PointSource) []core.Request {
	var reqs []core.Request
	for _, rs := range []*data.RegionSet{sc.Neighborhoods, sc.Tracts, sc.Grid} {
		for _, agg := range []core.Agg{core.Count, core.Sum, core.Avg, core.Min, core.Max} {
			req := core.Request{Points: sc.Taxi, Source: seg, Regions: rs, Agg: agg,
				Filters: []core.Filter{{Attr: "fare", Min: 5, Max: 40}}, Time: workload.JanWeek(1)}
			if agg.NeedsAttr() {
				req.Attr = "fare"
			}
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// filteredDigest hashes join over every filtered request, approximate then
// accurate.
func filteredDigest(t *testing.T, reqs []core.Request, opts []core.RJOption,
	join func(rj *core.RasterJoin, req core.Request) ([]core.RegionStat, error)) hash.Hash {

	t.Helper()
	h := sha256.New()
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		rj := core.NewRasterJoin(append([]core.RJOption{core.WithMode(mode),
			core.WithResolution(1024)}, opts...)...)
		for _, req := range reqs {
			stats, err := join(rj, req)
			if err != nil {
				t.Fatal(err)
			}
			if (&core.Result{Stats: stats}).TotalCount() == 0 {
				t.Fatalf("%s %v over %s: no point joined", mode, req.Agg, req.Regions.Name)
			}
			writeStats(h, stats)
		}
	}
	return h
}

// joinStats runs JoinContext.
func joinStats(rj *core.RasterJoin, req core.Request) ([]core.RegionStat, error) {
	res, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return res.Stats, nil
}

// TestFilteredJoinGolden: joins of 20 k taxi points under a fare filter and
// a time window, both modes, three layers, all five aggregates, hash to the
// recorded digest from the in-RAM set and from a segment store of 1024-point
// blocks behind a 64 KiB cache, unbatched and in 64-point batches.
func TestFilteredJoinGolden(t *testing.T) {
	sc := workload.NYC(20_000, 2009)
	st := equivStore(t, sc.Taxi, 1024, 64<<10)
	fare := data.AttrIndex(st, "fare")
	for b := 0; b < st.NumBlocks(); b++ {
		if z := st.Zone(b).Attr[fare]; z.Min >= 5 && z.Max < 40 {
			t.Fatalf("block %d: fare zone [%v, %v] inside the filter", b, z.Min, z.Max)
		}
	}
	for _, src := range []struct {
		name string
		seg  data.PointSource
	}{{"ram", nil}, {"segment", st}} {
		for _, batch := range []int{0, 64} {
			var opts []core.RJOption
			if batch > 0 {
				opts = append(opts, core.WithPointBatch(batch))
			}
			h := filteredDigest(t, filteredRequests(sc, src.seg), opts, joinStats)
			checkDigest(t, h, filteredGolden, fmt.Sprintf("filtered %s batch=%d", src.name, batch))
		}
	}
}

// TestScatteredJoinGolden: the filtered joins scattered over 2 and 4 shards
// hash to the filtered digest. At each shard count some points that pass
// the filters land in a straddle column, so the gather replays fragments.
func TestScatteredJoinGolden(t *testing.T) {
	sc := workload.NYC(20_000, 2009)
	m := sceneTransform(sc.Neighborhoods, 1024).PixelMap()
	req := filteredRequests(sc, nil)[0]
	fare := sc.Taxi.Attr("fare")
	for _, n := range []int{2, 4} {
		straddle := map[int]bool{}
		for _, cut := range shard.Build(sc.Taxi.Source(), n).Cuts {
			straddle[m.Col(cut)] = true
		}
		hits := 0
		for i, x := range sc.Taxi.X {
			f, ts := req.Filters[0], sc.Taxi.T[i]
			if fare[i] < f.Min || fare[i] >= f.Max || ts < req.Time.Start || ts >= req.Time.End {
				continue
			}
			if px, _, ok := m.Map(x, sc.Taxi.Y[i]); ok && straddle[px] {
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("%d shards: no point in a straddle column", n)
		}
		h := filteredDigest(t, filteredRequests(sc, nil), nil,
			func(rj *core.RasterJoin, req core.Request) ([]core.RegionStat, error) {
				res, err := shard.New(rj, n).JoinContext(context.Background(), req)
				if err != nil {
					return nil, err
				}
				return res.Stats, nil
			})
		checkDigest(t, h, filteredGolden, fmt.Sprintf("scattered over %d shards", n))
	}
}

// TestFlowJoinGolden: OD matrices of 20 k taxi trips over the three scene
// layers, both modes, unfiltered and under the fare filter and January's
// second week, hash to the recorded digest unbatched and in 64-point
// batches: every cell in index order, then Dropped and Filtered.
func TestFlowJoinGolden(t *testing.T) {
	sc := workload.NYC(20_000, 2009)
	for _, batch := range []int{0, 64} {
		h := sha256.New()
		for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
			opts := []core.RJOption{core.WithMode(mode), core.WithResolution(1024)}
			if batch > 0 {
				opts = append(opts, core.WithPointBatch(batch))
			}
			rj := core.NewRasterJoin(opts...)
			for _, rs := range []*data.RegionSet{sc.Neighborhoods, sc.Tracts, sc.Grid} {
				for _, filtered := range []bool{false, true} {
					req := core.Request{Points: sc.Taxi, Regions: rs, Agg: core.Count}
					if filtered {
						req.Filters = []core.Filter{{Attr: "fare", Min: 5, Max: 40}}
						req.Time = workload.JanWeek(1)
					}
					res, err := rj.FlowJoinContext(context.Background(), req,
						data.DropoffXAttr, data.DropoffYAttr)
					if err != nil {
						t.Fatal(err)
					}
					if res.Total() == 0 {
						t.Fatalf("%s over %s: no flow", rj.Name(), rs.Name)
					}
					writeFlow(h, res)
				}
			}
		}
		checkDigest(t, h, flowGolden, fmt.Sprintf("flow batch=%d", batch))
	}
}

// writeFlow hashes an OD matrix: its cells sorted by index, then Dropped
// and Filtered.
func writeFlow(h hash.Hash, res *core.FlowResult) {
	cells := make([]int64, 0, len(res.Counts))
	for cell := range res.Counts {
		cells = append(cells, cell)
	}
	slices.Sort(cells)
	for _, cell := range cells {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(cell)))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(res.Counts[cell])))
	}
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(res.Dropped)))
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(res.Filtered)))
}

// TestDensityGolden: the raw-density grids — COUNT, and SUM(fare) under an
// attribute filter and a time window — hash to the recorded digest.
func TestDensityGolden(t *testing.T) {
	sc := workload.NYC(20_000, 2009)
	rj := core.NewRasterJoin(core.WithPointBatch(4096))
	h := sha256.New()
	week := workload.JanWeek(1)
	for _, req := range []core.Request{
		{Points: sc.Taxi, Agg: core.Count},
		{Points: sc.Taxi, Agg: core.Sum, Attr: "fare",
			Filters: []core.Filter{{Attr: "fare", Min: 5, Max: 40}}, Time: week},
	} {
		grid, world, err := rj.DensityContext(context.Background(), req, sc.Bounds, 512, 384)
		if err != nil {
			t.Fatal(err)
		}
		writeFloats(h, grid...)
		writeFloats(h, world.MinX, world.MinY, world.MaxX, world.MaxY)
	}
	checkDigest(t, h, densityGolden, "density")
}

// TestSeriesJoinGolden: 12-bin series of 20 k taxi points over the tracts
// hash to the recorded digests — the accurate SUM series at 1024 px to
// seriesGolden, and every aggregate in both modes at 1024 px, in the ε mode
// and on a device whose 256-px texture limit tiles the canvas 16 ways to
// seriesGridGolden, each bin's stats and metadata.
func TestSeriesJoinGolden(t *testing.T) {
	sc := workload.NYC(20_000, 2009)
	jan := workload.Jan2009()
	grid := sha256.New()
	for _, canvas := range []string{"1024px", "eps", "tiled"} {
		for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
			opts := []core.RJOption{core.WithMode(mode), core.WithResolution(1024)}
			switch canvas {
			case "eps":
				opts = append(opts, core.WithEpsilon(60))
			case "tiled":
				opts = append(opts, core.WithDevice(gpu.New(gpu.WithMaxTextureSize(256))))
			}
			rj := core.NewRasterJoin(opts...)
			for _, agg := range []core.Agg{core.Count, core.Sum, core.Avg, core.Min, core.Max} {
				req := core.Request{Points: sc.Taxi, Regions: sc.Tracts, Agg: agg}
				if agg.NeedsAttr() {
					req.Attr = "fare"
				}
				bins, err := rj.SeriesJoinContext(context.Background(), req, jan.Start, jan.End, 12)
				if err != nil {
					t.Fatal(err)
				}
				if canvas == "tiled" && bins[0].Tiles != 16 {
					t.Fatalf("%d tiles, want 16", bins[0].Tiles)
				}
				if canvas == "1024px" && mode == core.Accurate && agg == core.Sum {
					h := sha256.New()
					for _, res := range bins {
						writeStats(h, res.Stats)
					}
					checkDigest(t, h, seriesGolden, "series")
				}
				for _, res := range bins {
					writeStats(grid, res.Stats)
					writeFloats(grid, float64(res.CanvasW), float64(res.CanvasH), float64(res.Tiles), res.PixelSize)
				}
			}
		}
	}
	checkDigest(t, grid, seriesGridGolden, "series grid")
}

// TestTiledJoinGolden: a join rendered as 16 canvas tiles, in both modes,
// hashes to the recorded digest. None of its points lies on an edge two
// tiles share, the one place tiling changed a result.
func TestTiledJoinGolden(t *testing.T) {
	ps, rs := scene(30_000, 12, 401)
	full := sceneTransform(rs, 256)
	for i := range ps.X {
		if onTileEdge(full, 64, ps.X[i], ps.Y[i]) {
			t.Fatalf("point %d lies on a tile edge", i)
		}
	}
	h := sha256.New()
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		rj := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithDevice(gpu.New(gpu.WithMaxTextureSize(64))))
		for _, agg := range []core.Agg{core.Count, core.Sum, core.Min} {
			res, err := rj.JoinContext(context.Background(), core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v"})
			if err != nil {
				t.Fatal(err)
			}
			if res.Tiles != 16 {
				t.Fatalf("%d tiles, want 16", res.Tiles)
			}
			writeStats(h, res.Stats)
		}
	}
	checkDigest(t, h, tiledGolden, "tiled")
}

// sceneTransform is the full canvas a resolution-driven join draws rs on.
func sceneTransform(rs *data.RegionSet, resolution int) raster.Transform {
	w := rs.Bounds()
	return raster.SquareTransform(w, math.Max(w.Width(), w.Height())/float64(resolution))
}

// onTileEdge reports whether (x, y) lies exactly on an edge that two of the
// step-pixel tiles of full share.
func onTileEdge(full raster.Transform, step int, x, y float64) bool {
	for x0 := step; x0 < full.W; x0 += step {
		if x == full.Sub(x0, 0, 1, 1).World.MinX {
			return true
		}
	}
	for y0 := step; y0 < full.H; y0 += step {
		if y == full.Sub(0, y0, 1, 1).World.MinY {
			return true
		}
	}
	return false
}
