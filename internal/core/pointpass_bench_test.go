package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/mercator"
)

// BenchmarkPointPass measures pass 1 alone — scan, map, filter and fold,
// without the polygon passes — approximate, over 1 M taxi points on the
// 1024 px canvas of the NYC window, for COUNT, SUM(fare) and MIN(fare). The
// tile is reused across iterations, so its textures keep accumulating; the
// work per point is the same.
func BenchmarkPointPass(b *testing.B) {
	taxi := data.Generate(data.NYCTaxiConfig(1_000_000, 2009, time.January, 2009))
	window := data.GridRegions("window", mercator.NYCBounds(), 1, 1)
	rj := NewRasterJoin(WithResolution(1024))
	full := rj.fullTransform(window.Bounds())
	ctx := context.Background()
	for _, agg := range []Agg{Count, Sum, Min} {
		b.Run(agg.String(), func(b *testing.B) {
			req := Request{Points: taxi, Regions: window, Agg: agg}
			if agg.NeedsAttr() {
				req.Attr = "fare"
			}
			sc, err := rj.newScan(req)
			if err != nil {
				b.Fatal(err)
			}
			attrIdx := -1
			if agg.NeedsAttr() {
				attrIdx = data.AttrIndex(sc.Src, "fare")
			}
			c, err := rj.dev.NewCanvas(full.World, full.W, full.H)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Release()
			sc.setWorld(c.T.World)
			t, err := rj.newTile(ctx, c, window, agg)
			if err != nil {
				b.Fatal(err)
			}
			defer t.release()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t.drawScan(ctx, sc, sc.Lo, sc.Hi, attrIdx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(taxi.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpts/s")
		})
	}
}
