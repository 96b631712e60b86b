package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/mercator"
	"repro/internal/raster"
)

// benchTaxi is the 1 M-point taxi set both kernel benchmarks draw.
func benchTaxi() *data.PointSet {
	return data.Generate(data.NYCTaxiConfig(1_000_000, 2009, time.January, 2009))
}

// benchLayers are the scene layers of workload.NYC(n, 2009) — neighborhoods,
// tracts and grid64 — built here because package workload imports core.
func benchLayers() []*data.RegionSet {
	bounds := mercator.NYCBounds()
	return []*data.RegionSet{
		data.VoronoiRegions("neighborhoods", bounds, 260, 2010, data.VoronoiOptions{JitterFrac: 0.12}),
		data.VoronoiRegions("tracts", bounds, 2048, 2011, data.VoronoiOptions{JitterFrac: 0.08}),
		data.GridRegions("grid64", bounds, 64, 64),
	}
}

// benchTile prepares a tile of rj over layer's canvas for a scan of agg over
// taxi; both are released when b ends.
func benchTile(b *testing.B, rj *RasterJoin, taxi *data.PointSet, layer *data.RegionSet, agg Agg) (t *tile, sc *Scan, attrIdx int) {
	req := Request{Points: taxi, Regions: layer, Agg: agg}
	if agg.NeedsAttr() {
		req.Attr = "fare"
	}
	sc, err := rj.newScan(req)
	if err != nil {
		b.Fatal(err)
	}
	attrIdx = -1
	if agg.NeedsAttr() {
		attrIdx = data.AttrIndex(sc.Src, "fare")
	}
	full := rj.fullTransform(layer.Bounds())
	c, err := rj.dev.NewCanvas(full.World, full.W, full.H)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Release)
	sc.setWorld(c.T.World)
	t, err = rj.newTile(context.Background(), c, layer, agg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { t.release(false) })
	return t, sc, attrIdx
}

// BenchmarkPointPass measures pass 1 alone — scan, map, filter and fold,
// without the polygon passes — over 1 M taxi points on the 1024 px canvas
// of the NYC window: approximate for COUNT, SUM(fare) and MIN(fare), and
// accurate SUM(fare) over the tracts, whose boundary mask sends points to
// the row observation lists. The tile is reused across iterations, so its
// textures keep accumulating; the work per point is the same. The
// observation lists are emptied after every iteration.
func BenchmarkPointPass(b *testing.B) {
	taxi := benchTaxi()
	window := data.GridRegions("window", mercator.NYCBounds(), 1, 1)
	tracts := benchLayers()[1]
	ctx := context.Background()
	for _, bc := range []struct {
		name  string
		mode  Mode
		layer *data.RegionSet
		agg   Agg
	}{
		{"COUNT", Approximate, window, Count},
		{"SUM", Approximate, window, Sum},
		{"MIN", Approximate, window, Min},
		{"accurate-SUM", Accurate, tracts, Sum},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rj := NewRasterJoin(WithResolution(1024), WithMode(bc.mode))
			t, sc, attrIdx := benchTile(b, rj, taxi, bc.layer, bc.agg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t.drawScan(ctx, sc, sc.Lo, sc.Hi, attrIdx); err != nil {
					b.Fatal(err)
				}
				if t.mask != nil {
					t.clear(t.rows)
				}
			}
			b.ReportMetric(float64(taxi.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpts/s")
		})
	}
}

// BenchmarkResolve measures passes 2 and 3 alone: SUM(fare) at 1024 px, pass
// 1 drawn once, then resolve timed per iteration on each scene layer in both
// modes, over all 1 M taxi points and over a narrow one-hour window of them
// (the -1h rows). resolve clears what it reads, so the textures, the hit
// bitmap and accurate mode's observation lists are restored from copies
// outside the timer.
func BenchmarkResolve(b *testing.B) {
	taxi := benchTaxi()
	layers := benchLayers()
	hour := taxi.T[taxi.Len()/2]
	ctx := context.Background()
	for _, mode := range []Mode{Approximate, Accurate} {
		for _, layer := range layers {
			for _, narrow := range []bool{false, true} {
				name := mode.String() + "/" + layer.Name
				if narrow {
					name += "-1h"
				}
				b.Run(name, func(b *testing.B) {
					rj := NewRasterJoin(WithResolution(1024), WithMode(mode))
					t, sc, attrIdx := benchTile(b, rj, taxi, layer, Sum)
					if narrow {
						if err := sc.setTime(hour, hour+3600); err != nil {
							b.Fatal(err)
						}
					}
					if err := t.drawScan(ctx, sc, sc.Lo, sc.Hi, attrIdx); err != nil {
						b.Fatal(err)
					}
					count, sum := slices.Clone(t.count.Data), slices.Clone(t.sum.Data)
					hit := raster.NewBitmap(t.hit.W, t.hit.H)
					for y := 0; y < hit.H; y++ {
						copy(hit.Row(y), t.hit.Row(y))
					}
					rows := make([][]obs, len(t.rows))
					for y, row := range t.rows {
						rows[y] = slices.Clone(row)
					}
					stats := make([]RegionStat, layer.Len())
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(t.count.Data, count)
						copy(t.sum.Data, sum)
						for y := 0; y < hit.H; y++ {
							copy(t.hit.Row(y), hit.Row(y))
						}
						for y := range t.rows {
							t.rows[y] = append(t.rows[y][:0], rows[y]...)
						}
						clear(stats)
						b.StartTimer()
						if err := t.resolve(ctx, stats); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
