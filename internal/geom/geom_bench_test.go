package geom

import (
	"strconv"
	"testing"
)

func benchRing(n int) Ring { return RegularRing(Pt(0, 0), 100, n) }

func BenchmarkRingContains(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		ring := benchRing(n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ring.Contains(Pt(float64(i%200)-100, 13))
			}
		})
	}
}

func BenchmarkPolygonContainsWithHoles(b *testing.B) {
	pg := Polygon{
		Outer: benchRing(64),
		Holes: []Ring{RegularRing(Pt(30, 0), 10, 16), RegularRing(Pt(-30, 0), 10, 16)},
	}
	pg.Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg.Contains(Pt(float64(i%200)-100, 7))
	}
}

func BenchmarkSimplifyRing(b *testing.B) {
	ring := benchRing(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := SimplifyRing(ring, 0.5); len(s) < 3 {
			b.Fatal("oversimplified")
		}
	}
}
