package raster

import (
	"strconv"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/geomtest"
)

func benchTransform(res int) Transform {
	return NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, res, res)
}

func BenchmarkFillPolygon(b *testing.B) {
	for _, res := range []int{256, 1024} {
		tr := benchTransform(res)
		pg := geom.NewPolygon(geom.StarRing(geom.Point{X: 500, Y: 500}, 450, 200, 16))
		b.Run(strconv.Itoa(res), func(b *testing.B) {
			count := 0
			for i := 0; i < b.N; i++ {
				count = 0
				FillPolygon(tr, pg, func(x, y int) { count++ })
			}
			b.ReportMetric(float64(count), "fragments")
		})
	}
}

func BenchmarkFillPolygonWithHoles(b *testing.B) {
	tr := benchTransform(1024)
	pg := geom.Polygon{
		Outer: geomtest.RegularRing(geom.Point{X: 500, Y: 500}, 450, 64),
		Holes: []geom.Ring{
			geomtest.RegularRing(geom.Point{X: 400, Y: 400}, 80, 32),
			geomtest.RegularRing(geom.Point{X: 650, Y: 600}, 120, 32),
		},
	}
	pg.Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FillPolygon(tr, pg, func(x, y int) {})
	}
}

func BenchmarkTraceSegment(b *testing.B) {
	tr := benchTransform(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TraceSegment(tr, geom.Point{X: 3, Y: 7}, geom.Point{X: 997, Y: 843}, func(x, y int) {})
	}
}

func BenchmarkBoundaryPixels(b *testing.B) {
	tr := benchTransform(1024)
	pg := geom.NewPolygon(geom.StarRing(geom.Point{X: 500, Y: 500}, 450, 200, 16))
	bm := NewBitmap(1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Clear()
		BoundaryPixels(tr, pg, bm.Set)
	}
}

func BenchmarkBitmapOps(b *testing.B) {
	bm := NewBitmap(1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := i&1023, (i>>3)&1023
		bm.Set(x, y)
		if !bm.Get(x, y) {
			b.Fatal("bit lost")
		}
		bm.Unset(x, y)
	}
}
