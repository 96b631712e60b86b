package geom_test

import (
	"strconv"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/geomtest"
)

func benchRing(n int) geom.Ring { return geomtest.RegularRing(geom.Point{}, 100, n) }

func BenchmarkRingContains(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		ring := benchRing(n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ring.Contains(geom.Point{X: float64(i%200) - 100, Y: 13})
			}
		})
	}
}

func BenchmarkPolygonContainsWithHoles(b *testing.B) {
	pg := geom.Polygon{
		Outer: benchRing(64),
		Holes: []geom.Ring{
			geomtest.RegularRing(geom.Point{X: 30}, 10, 16),
			geomtest.RegularRing(geom.Point{X: -30}, 10, 16),
		},
	}
	pg.Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg.Contains(geom.Point{X: float64(i%200) - 100, Y: 7})
	}
}

func BenchmarkSimplifyRing(b *testing.B) {
	ring := benchRing(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := geom.SimplifyRing(ring, 0.5); len(s) < 3 {
			b.Fatal("oversimplified")
		}
	}
}
