package index

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
)

func randomPoints(n int, seed int64, bounds geom.BBox) *data.PointSet {
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{
		Name: "rand",
		X:    make([]float64, n),
		Y:    make([]float64, n),
		T:    make([]int64, n),
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		ps.X[i] = bounds.MinX + rng.Float64()*bounds.Width()
		ps.Y[i] = bounds.MinY + rng.Float64()*bounds.Height()
		ps.T[i] = int64(i)
		vals[i] = rng.Float64() * 10
	}
	ps.Attrs = []data.Column{{Name: "v", Values: vals}}
	return ps
}

func unitBounds() geom.BBox { return geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100} }

func TestBuildGridStructure(t *testing.T) {
	ps := randomPoints(1000, 1, unitBounds())
	g := BuildGrid(ps, 8)
	if g.nx*g.ny != 64 {
		t.Fatalf("cells = %d, want 64", g.nx*g.ny)
	}
	// Every point appears exactly once across all cells.
	seen := make([]int, ps.Len())
	for c := 0; c < g.nx*g.ny; c++ {
		for _, id := range g.Cell(c) {
			seen[id]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("point %d appears %d times", i, n)
		}
	}
	// Each point is in the cell whose box contains it.
	for c := 0; c < g.nx*g.ny; c++ {
		for _, id := range g.Cell(c) {
			if got := g.cellAt(ps.X[id], ps.Y[id]); got != c {
				t.Fatalf("point %d stored in cell %d but maps to %d", id, c, got)
			}
		}
	}
}

func TestGridCandidatesSuperset(t *testing.T) {
	ps := randomPoints(2000, 2, unitBounds())
	g := BuildGrid(ps, 16)
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		b := geom.NewBBox(rng.Float64()*100, rng.Float64()*100,
			rng.Float64()*100, rng.Float64()*100)
		got := map[int32]bool{}
		g.CandidatesInBBox(b, func(id int32) {
			if got[id] {
				t.Fatalf("candidate %d visited twice", id)
			}
			got[id] = true
		})
		for i := 0; i < ps.Len(); i++ {
			if b.Contains(geom.Point{X: ps.X[i], Y: ps.Y[i]}) && !got[int32(i)] {
				t.Fatalf("point %d inside box missing from candidates", i)
			}
		}
	}
}

func TestGridDegenerate(t *testing.T) {
	empty := &data.PointSet{Name: "empty"}
	g := BuildGrid(empty, 8)
	count := 0
	g.CandidatesInBBox(unitBounds(), func(int32) { count++ })
	if count != 0 {
		t.Error("empty grid should have no candidates")
	}
	// All points identical.
	same := &data.PointSet{X: []float64{5, 5, 5}, Y: []float64{5, 5, 5}}
	g = BuildGrid(same, 4)
	count = 0
	g.CandidatesInBBox(geom.BBox{MinX: 4, MinY: 4, MaxX: 6, MaxY: 6}, func(int32) { count++ })
	if count != 3 {
		t.Errorf("coincident points candidates = %d, want 3", count)
	}
	if g := BuildGrid(empty, 0); g.nx*g.ny != 1 {
		t.Error("n=0 should clamp")
	}
}

func TestDefaultGridSide(t *testing.T) {
	if s := DefaultGridSide(0); s != 1 {
		t.Errorf("side(0) = %d", s)
	}
	if s := DefaultGridSide(100); s != 16 {
		t.Errorf("side(100) = %d, want floor 16", s)
	}
	if s := DefaultGridSide(1 << 30); s != 2048 {
		t.Errorf("side(huge) = %d, want cap 2048", s)
	}
	if s := DefaultGridSide(4_000_000); s < 100 || s > 1000 {
		t.Errorf("side(4M) = %d, want a few hundred", s)
	}
}

func TestRTreeSearchPoint(t *testing.T) {
	boxes := []geom.BBox{
		{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		{MinX: 5, MinY: 5, MaxX: 15, MaxY: 15},
		{MinX: 20, MinY: 20, MaxX: 30, MaxY: 30},
	}
	tr := BuildRTree(boxes)
	got := map[int32]bool{}
	tr.SearchPoint(geom.Point{X: 7, Y: 7}, func(id int32) { got[id] = true })
	if !got[0] || !got[1] || got[2] || len(got) != 2 {
		t.Errorf("SearchPoint(7,7) = %v, want {0,1}", got)
	}
	got = map[int32]bool{}
	tr.SearchPoint(geom.Point{X: 100, Y: 100}, func(id int32) { got[id] = true })
	if len(got) != 0 {
		t.Errorf("SearchPoint far away = %v, want none", got)
	}
}

func TestRTreeSearchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 800 // forces several levels at fanout 16
	boxes := make([]geom.BBox, n)
	for i := range boxes {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		w, h := rng.Float64()*30, rng.Float64()*30
		boxes[i] = geom.BBox{MinX: cx, MinY: cy, MaxX: cx + w, MaxY: cy + h}
	}
	tr := BuildRTree(boxes)
	if tr.root == nil || tr.root.leaf {
		t.Error("want a multi-level tree")
	}
	for iter := 0; iter < 200; iter++ {
		p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		got := map[int32]bool{}
		tr.SearchPoint(p, func(id int32) {
			if got[id] {
				t.Fatalf("payload %d reported twice", id)
			}
			got[id] = true
		})
		for i, b := range boxes {
			if b.Contains(p) != got[int32(i)] {
				t.Fatalf("iter %d: box %d contains=%v reported=%v", iter, i, b.Contains(p), got[int32(i)])
			}
		}
	}
}

func TestRTreeEmpty(t *testing.T) {
	tr := BuildRTree(nil)
	count := 0
	tr.SearchPoint(geom.Point{X: 0, Y: 0}, func(int32) { count++ })
	if count != 0 {
		t.Error("empty tree should return nothing")
	}
}
