package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/raster"
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
	tiledGolden       = "ac082b75348ba2fe1d8f0c46b100112f724274224945200c0c551baf1aa4ae6e"
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
// recorded digest at point workers 1, 2 and 4, with 64-point batches (many
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
				core.WithResolution(1024), core.WithPointWorkers(workers)}
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

// TestSeriesJoinGolden: a 12-bin accurate SUM series over the tracts hashes
// to the recorded digest.
func TestSeriesJoinGolden(t *testing.T) {
	sc := workload.NYC(20_000, 2009)
	jan := workload.Jan2009()
	rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(1024))
	req := core.Request{Points: sc.Taxi, Regions: sc.Tracts, Agg: core.Sum, Attr: "fare"}
	res, err := rj.SeriesJoinContext(context.Background(), req, jan.Start, jan.End, 12)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for b := range res.Stats {
		writeStats(h, res.Stats[b])
	}
	checkDigest(t, h, seriesGolden, "series")
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
			res, err := rj.Join(core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v"})
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
