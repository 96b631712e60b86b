package urbane

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkHeatmapDefaultExtent times the density view a heatmap request
// without a crop computes on a cache miss: the 1 M-point taxi scene at
// 512 px over the data set's own extent.
func BenchmarkHeatmapDefaultExtent(b *testing.B) {
	sc := workload.NYC(1_000_000, 2009)
	f := New(core.NewRasterJoin())
	if err := f.AddPointSet(sc.Taxi); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := HeatmapRequest{Dataset: sc.Taxi.Name, W: 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.HeatmapContext(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
