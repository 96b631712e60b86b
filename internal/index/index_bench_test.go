package index

import (
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

func BenchmarkBuildGrid(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		ps := randomPoints(n, 1, unitBounds())
		side := DefaultGridSide(n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildGrid(ps, side)
			}
		})
	}
}

func BenchmarkBuildRTree(b *testing.B) {
	rs := data.VoronoiRegions("r", unitBounds(), 1000, 3, data.VoronoiOptions{})
	boxes := make([]geom.BBox, rs.Len())
	for i, r := range rs.Regions {
		boxes[i] = r.Poly.BBox()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildRTree(boxes)
	}
}

func BenchmarkGridCandidates(b *testing.B) {
	ps := randomPoints(100_000, 4, unitBounds())
	g := BuildGrid(ps, DefaultGridSide(ps.Len()))
	box := geom.BBox{MinX: 20, MinY: 20, MaxX: 45, MaxY: 45}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.CandidatesInBBox(box, func(int32) { n++ })
	}
}

func BenchmarkRTreeSearchPoint(b *testing.B) {
	rs := data.VoronoiRegions("r", unitBounds(), 1000, 5, data.VoronoiOptions{})
	boxes := make([]geom.BBox, rs.Len())
	for i, r := range rs.Regions {
		boxes[i] = r.Poly.BBox()
	}
	tr := BuildRTree(boxes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.Pt(float64(i%100), float64((i*7)%100))
		tr.SearchPoint(p, func(int32) {})
	}
}

func BenchmarkJoiners(b *testing.B) {
	ps, rs := testScene(100_000, 64, 6)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	grid := &GridJoin{}
	grid.Prepare(ps)
	rtree := &RTreeJoin{}
	rtree.Prepare(rs)
	for _, j := range []core.Joiner{grid, rtree, &BruteForce{}} {
		b.Run(j.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := j.Join(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
