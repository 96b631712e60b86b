package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// accurateGolden is the SHA-256 of every region stat TestAccurateJoinGolden
// computes, recorded before boundary refine moved onto the cached row-edge
// tables. Every configuration must reproduce it: the refactored passes are
// bit-identical to Polygon.Contains over per-pixel bins, not merely close.
const accurateGolden = "9babeda1458b31b11f907cbdd7edc4842371ac81daf62ad93e52431ff15a5da2"

// TestAccurateJoinGolden: accurate joins of 20 k taxi points over the three
// scene layers, all five aggregates, hash to the recorded digest at point
// workers 1, 2 and 4, with 64-point batches (many appends per boundary row)
// and unbatched (the striped parallel pass, whose stripe owners write the
// per-row boundary lists concurrently).
func TestAccurateJoinGolden(t *testing.T) {
	sc := workload.NYC(20_000, 2009)
	layers := []*data.RegionSet{sc.Neighborhoods, sc.Tracts, sc.Grid}
	aggs := []core.Agg{core.Count, core.Sum, core.Avg, core.Min, core.Max}
	dev := gpu.New()
	for _, batch := range []int{64, 0} {
		for _, workers := range []int{1, 2, 4} {
			opts := []core.RJOption{core.WithDevice(dev), core.WithMode(core.Accurate),
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
					for _, s := range res.Stats {
						for _, v := range []uint64{uint64(s.Count), math.Float64bits(s.Sum),
							math.Float64bits(s.Min), math.Float64bits(s.Max)} {
							h.Write(binary.LittleEndian.AppendUint64(nil, v))
						}
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != accurateGolden {
				t.Errorf("batch=%d workers=%d: stats digest %s, want %s", batch, workers, got, accurateGolden)
			}
		}
	}
}
