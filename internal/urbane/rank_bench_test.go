package urbane

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/workload"
)

// BenchmarkRank times the ranking view: three taxi metrics — COUNT,
// AVG(fare) and SUM(fare) over fares of at least 10 — over the 1 M-point
// taxi scene's neighborhoods and tracts, in both modes at 1024 px, the span
// cache warm as on a server after its first request per layer.
func BenchmarkRank(b *testing.B) {
	sc := workload.NYC(1_000_000, 2009)
	metrics := []MetricSpec{
		{Name: "trips", Selection: Selection{Dataset: sc.Taxi.Name, Agg: core.Count}},
		{Name: "avg-fare", Selection: Selection{Dataset: sc.Taxi.Name, Agg: core.Avg, Attr: "fare"}},
		{Name: "big-fares", Selection: Selection{Dataset: sc.Taxi.Name, Agg: core.Sum, Attr: "fare",
			Filters: []core.Filter{{Attr: "fare", Min: 10, Max: 1e9}}}},
	}
	ctx := context.Background()
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		f := New(core.NewRasterJoin(core.WithResolution(1024), core.WithMode(mode)))
		if err := f.AddPointSet(sc.Taxi); err != nil {
			b.Fatal(err)
		}
		for _, layer := range []*data.RegionSet{sc.Neighborhoods, sc.Tracts} {
			if err := f.AddRegionSet(layer); err != nil {
				b.Fatal(err)
			}
		}
		for _, layer := range []*data.RegionSet{sc.Neighborhoods, sc.Tracts} {
			b.Run(layer.Name+"/"+mode.String(), func(b *testing.B) {
				rank := func() {
					if _, err := f.RankSimilarContext(ctx, layer.Name, layer.Regions[0].ID, metrics); err != nil {
						b.Fatal(err)
					}
				}
				rank()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rank()
				}
			})
		}
	}
}
