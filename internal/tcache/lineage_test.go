package tcache_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/tcache"
)

// TestLineageFoldsMatchCold is the property behind keying sealed slabs by
// lineage: along a random in-order append lineage — a tail at exactly the
// parent's last timestamp, a tail that starts inside the slab holding that
// timestamp and runs past the slab's end, then random in-order tails, some
// on slab walls — one warm joiner per mode folds every slab-aligned window
// of a band around the moving horizon on every snapshot, for all five
// aggregates, and each fold equals, bit for bit, the same window merged
// from a cold SeriesJoinContext over the band on that snapshot.
func TestLineageFoldsMatchCold(t *testing.T) {
	const gran = 3600
	rng := rand.New(rand.NewSource(83))
	root := buildTemporalScene(t, 1500, 79)
	rs := queryRegions(rand.New(rand.NewSource(89)))

	// tail returns n in-order points at timestamps ts(i); half sit near
	// (500, 500), inside the rectangle region whatever its random corners.
	tail := func(n int, ts func(i int) int64) *data.PointSet {
		p := &data.PointSet{Name: root.Name}
		v, w := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			x, y := 499.5+rng.Float64(), 499.5+rng.Float64()
			if i%2 == 1 {
				x, y = rng.Float64()*1000, rng.Float64()*1000
			}
			p.X, p.Y, p.T = append(p.X, x), append(p.Y, y), append(p.T, ts(i))
			v[i], w[i] = (rng.Float64()-0.5)*200, rng.Float64()*60
		}
		p.Attrs = []data.Column{{Name: "v", Values: v}, {Name: "w", Values: w}}
		return p
	}
	horizon := func(p *data.PointSet) int64 { return p.T[p.Len()-1] }
	h0 := horizon(root)
	if (h0/gran+1)*gran-h0 < 8 {
		t.Fatalf("root horizon %d too close to its slab's end for the tails below", h0)
	}
	tails := []func(h int64) *data.PointSet{
		func(h int64) *data.PointSet { return tail(4, func(int) int64 { return h }) },
		func(h int64) *data.PointSet { // from inside h's slab to 1.5 slabs past its end
			end := (h/gran+1)*gran + gran + gran/2
			return tail(9, func(i int) int64 { return h + 1 + (end-h-1)*int64(i)/8 })
		},
	}
	for i := 0; i < 3; i++ {
		tails = append(tails, func(h int64) *data.PointSet {
			ts := h
			return tail(6, func(int) int64 {
				if rng.Intn(3) == 0 {
					ts = (ts/gran + 1) * gran // onto the next slab wall
				} else {
					ts += rng.Int63n(gran / 2)
				}
				return ts
			})
		})
	}
	snaps := []*data.PointSet{root}
	for _, mk := range tails {
		parent := snaps[len(snaps)-1]
		grown, err := parent.AppendCOW(mk(horizon(parent)))
		if err != nil {
			t.Fatal(err)
		}
		if grown.Lineage() != root.Lineage() {
			t.Fatal("an in-order append left the root's lineage")
		}
		snaps = append(snaps, grown)
	}

	lo := (h0/gran - 3) * gran
	hi := (horizon(snaps[len(snaps)-1])/gran + 2) * gran
	band := int((hi - lo) / gran)
	ctx := context.Background()
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		raster := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(64))
		warm := tcache.New(raster, gran, 0, 0)
		for s, ps := range snaps {
			for _, ac := range foldAggCases {
				req := core.Request{Points: ps, Regions: rs, Agg: ac.agg, Attr: ac.attr}
				bins, err := raster.SeriesJoinContext(ctx, req, lo, hi, band)
				if err != nil {
					t.Fatal(err)
				}
				for a := 0; a < band; a++ {
					for b := a + 1; b <= band; b++ {
						req.Time = &core.TimeFilter{Start: lo + int64(a)*gran, End: lo + int64(b)*gran}
						got, err := warm.JoinContext(ctx, req)
						if err != nil {
							t.Fatal(err)
						}
						requireSame(t, fmt.Sprintf("mode %v snapshot %d %v slabs [%d,%d)", mode, s, ac.agg, a, b),
							got, foldBins(bins[a:b]))
					}
				}
			}
		}
		if warm.SlabsReused() == 0 {
			t.Fatalf("mode %v: the warm joiner reused nothing", mode)
		}
	}
}
