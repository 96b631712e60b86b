package urbane

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkAppendThenSlide times what one append costs the slider session
// that follows it: a 100-point append to the taxi set (the geoblocks
// pyramid patched) plus the first 8-slab slide after it, whose last slab
// the append landed in. Run on bases of
// 250 k and 1 M points, the two times should be close: an append costs
// its tail, not the base.
func BenchmarkAppendThenSlide(b *testing.B) {
	const slab, slabs, tailLen = 6 * 3600, 8, 100
	for _, n := range []int{250_000, 1_000_000} {
		b.Run(fmt.Sprintf("base=%d", n), func(b *testing.B) {
			sc := workload.NYC(n, 2009)
			f := New(core.NewRasterJoin())
			for _, err := range []error{f.AddPointSet(sc.Taxi), f.AddRegionSet(sc.Neighborhoods)} {
				if err != nil {
					b.Fatal(err)
				}
			}
			gb := f.EnableGeoBlocks(0)
			f.EnableIncremental(slab, 0, 0)
			ctx := context.Background()

			// The window ends at the slab holding the set's last timestamp,
			// which every appended point repeats, so each append leaves that
			// slab open and the window recomputes exactly it.
			last := sc.Taxi.T[sc.Taxi.Len()-1]
			end := (last/slab + 1) * slab
			slide := func() error {
				ps, _ := f.PointSet("taxi")
				_, err := f.ExecuteContext(ctx, core.Request{Points: ps, Regions: sc.Neighborhoods,
					Agg: core.Sum, Attr: "fare", Time: &core.TimeFilter{Start: end - slabs*slab, End: end}})
				return err
			}
			// Warm the pyramid (a polygon the hierarchy answers) and the
			// window's slab partials, as a session would have.
			if _, err := f.ExecuteContext(ctx, core.Request{Points: sc.Taxi,
				Regions: workload.AdHocPolygon(1), Agg: core.Count}); err != nil {
				b.Fatal(err)
			}
			if err := slide(); err != nil {
				b.Fatal(err)
			}
			if st := gb.Store().Stats(); st.Misses != 1 {
				b.Fatalf("pyramid not built by the warm-up polygon: %+v", st)
			}

			// Tails copy random base points, so every one lies inside the
			// pyramid's bounds and the patch never falls back.
			rng := rand.New(rand.NewSource(1))
			idx := make([]int, tailLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := range idx {
					idx[k] = rng.Intn(n)
				}
				tail := sc.Taxi.Select(idx)
				for k := range tail.T {
					tail.T[k] = last
				}
				b.StartTimer()
				info, err := f.Append(ctx, "taxi", tail)
				if err != nil {
					b.Fatal(err)
				}
				if !info.GeoBlocksPatched {
					b.Fatal("append fell back to a pyramid rebuild")
				}
				if err := slide(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
