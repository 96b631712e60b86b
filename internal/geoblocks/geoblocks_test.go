package geoblocks

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// genPoints builds a deterministic mixed point set: a uniform wash, two
// heavy clusters, coincident duplicates, and points exactly on the bounds
// corners and edges — the shapes urban data and the bucketing edge cases
// both need. Attribute "v" mixes signs (sum cancellation), "w" is
// positive.
func genPoints(t testing.TB, n int, seed int64) *data.PointSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{Name: "test",
		X: make([]float64, 0, n), Y: make([]float64, 0, n)}
	v := make([]float64, 0, n)
	w := make([]float64, 0, n)
	add := func(x, y float64) {
		ps.X = append(ps.X, x)
		ps.Y = append(ps.Y, y)
		v = append(v, (rng.Float64()-0.5)*80)
		w = append(w, rng.Float64()*40)
	}
	// Pin the extent and exercise the boundary-clamp rule.
	add(0, 0)
	add(1000, 1000)
	add(1000, 0)
	add(0, 1000)
	add(500, 1000) // on the max-Y edge
	add(1000, 500) // on the max-X edge
	for i := 0; i < 8; i++ {
		add(250.25, 250.25) // coincident stack
	}
	for len(ps.X) < n {
		switch rng.Intn(3) {
		case 0:
			add(rng.Float64()*1000, rng.Float64()*1000)
		case 1:
			add(300+rng.NormFloat64()*40, 700+rng.NormFloat64()*40)
		default:
			add(800+rng.NormFloat64()*25, 200+rng.NormFloat64()*25)
		}
	}
	ps.Attrs = []data.Column{{Name: "v", Values: v}, {Name: "w", Values: w}}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	return ps
}

// checkPlanInvariants proves the classification contract for one polygon
// against one index by brute force:
//
//  1. interior ⊎ fringe partitions (no finest cell is covered twice);
//  2. fringe cells sit at the finest level;
//  3. every point the polygon contains lives in an interior-covered or
//     fringe cell, and no point in an interior-covered cell is outside the
//     polygon — so the hybrid neither drops nor double-counts a point.
func checkPlanInvariants(t testing.TB, ix *Index, pg geom.Polygon, pl Plan) {
	t.Helper()
	if ix.empty {
		if len(pl.Interior)+len(pl.Fringe) != 0 {
			t.Fatalf("empty index produced a non-empty plan")
		}
		return
	}
	side := 1 << ix.maxLevel
	const (
		unmarked = 0
		interior = 1
		fringe   = 2
	)
	marks := make([]byte, side*side)
	paint := func(c Cell, m byte) {
		scale := side >> int(c.Level)
		for dy := 0; dy < scale; dy++ {
			for dx := 0; dx < scale; dx++ {
				fx := int(c.X)*scale + dx
				fy := int(c.Y)*scale + dy
				i := fy*side + fx
				if marks[i] != unmarked {
					t.Fatalf("cell L%d(%d,%d): finest cell (%d,%d) covered twice (marks %d then %d)",
						c.Level, c.X, c.Y, fx, fy, marks[i], m)
				}
				marks[i] = m
			}
		}
	}
	for _, c := range pl.Interior {
		paint(c, interior)
	}
	for _, c := range pl.Fringe {
		if int(c.Level) != ix.maxLevel {
			t.Fatalf("fringe cell at level %d, want %d", c.Level, ix.maxLevel)
		}
		paint(c, fringe)
	}
	for id := 0; id < ix.ps.Len(); id++ {
		p := geom.Point{X: ix.ps.X[id], Y: ix.ps.Y[id]}
		in := pg.Contains(p)
		m := marks[ix.finestCell(p.X, p.Y)]
		switch {
		case in && m == unmarked:
			t.Fatalf("point %d (%v) is inside the polygon but its cell is classified outside", id, p)
		case !in && m == interior:
			t.Fatalf("point %d (%v) is outside the polygon but its cell is classified interior", id, p)
		}
	}
}

func mustBuild(t testing.TB, ps *data.PointSet, maxLevel int) *Index {
	t.Helper()
	ix, err := BuildContext(context.Background(), ps, maxLevel)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildPyramidConsistency(t *testing.T) {
	ps := genPoints(t, 5000, 1)
	ix := mustBuild(t, ps, 6)

	// The CSR order is a permutation and agrees with finestCell.
	seen := make([]bool, ps.Len())
	side := 1 << ix.maxLevel
	for c := 0; c < side*side; c++ {
		for _, id := range ix.order[ix.start[c]:ix.start[c+1]] {
			if seen[id] {
				t.Fatalf("point %d appears twice in the CSR", id)
			}
			seen[id] = true
			if got := int(ix.finestCell(ps.X[id], ps.Y[id])); got != c {
				t.Fatalf("point %d filed under cell %d but finestCell says %d", id, c, got)
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("point %d missing from the CSR", id)
		}
	}

	// Every level's cell count equals the sum of its four children; the
	// root count is the point count.
	for l := 0; l < ix.maxLevel; l++ {
		childSide := 1 << (l + 1)
		for cy := 0; cy < 1<<l; cy++ {
			for cx := 0; cx < 1<<l; cx++ {
				var sum int64
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						sum += ix.counts[l+1][(2*cy+dy)*childSide+2*cx+dx]
					}
				}
				if got := ix.counts[l][cy*(1<<l)+cx]; got != sum {
					t.Fatalf("level %d cell (%d,%d): count %d != children sum %d", l, cx, cy, got, sum)
				}
			}
		}
	}
	if ix.counts[0][0] != int64(ps.Len()) {
		t.Fatalf("root count %d, want %d", ix.counts[0][0], ps.Len())
	}
}

func TestBuildAttrPyramid(t *testing.T) {
	ps := genPoints(t, 3000, 2)
	ix := mustBuild(t, ps, 5)
	col := ps.Attr("v")
	rng := rand.New(rand.NewSource(3))

	for trial := 0; trial < 200; trial++ {
		l := rng.Intn(ix.maxLevel + 1)
		sideL := 1 << l
		cx, cy := rng.Intn(sideL), rng.Intn(sideL)
		i := cy*sideL + cx

		// Brute-force the cell's stats from the finest CSR descendants.
		scale := (1 << ix.maxLevel) >> l
		var cnt int64
		var sum float64
		mn, mx := math.Inf(1), math.Inf(-1)
		fineSide := 1 << ix.maxLevel
		for dy := 0; dy < scale; dy++ {
			for dx := 0; dx < scale; dx++ {
				fc := (cy*scale+dy)*fineSide + cx*scale + dx
				for _, id := range ix.order[ix.start[fc]:ix.start[fc+1]] {
					cnt++
					sum += col[id]
					if col[id] < mn {
						mn = col[id]
					}
					if col[id] > mx {
						mx = col[id]
					}
				}
			}
		}
		ap := ix.attrs["v"]
		if got := ix.counts[l][i]; got != cnt {
			t.Fatalf("L%d(%d,%d): count %d want %d", l, cx, cy, got, cnt)
		}
		if cnt == 0 {
			continue
		}
		if got := ap.sums[l][i]; math.Abs(got-sum) > 1e-9*(1+math.Abs(sum)) {
			t.Fatalf("L%d(%d,%d): sum %g want %g", l, cx, cy, got, sum)
		}
		if ap.mins[l][i] != mn || ap.maxs[l][i] != mx {
			t.Fatalf("L%d(%d,%d): min/max %g/%g want %g/%g",
				l, cx, cy, ap.mins[l][i], ap.maxs[l][i], mn, mx)
		}
	}
}

func TestClassifyDeterministicShapes(t *testing.T) {
	ps := genPoints(t, 4000, 4)
	ix := mustBuild(t, ps, 6)
	ctx := context.Background()

	shapes := map[string]geom.Polygon{
		"coversGrid":   geom.NewPolygon(geom.RectRing(ix.bounds.Expand(10))),
		"fullyOutside": geom.NewPolygon(geom.RectRing(geom.BBox{MinX: 5000, MinY: 5000, MaxX: 6000, MaxY: 6000})),
		"halfPlane":    geom.NewPolygon(geom.Ring{{X: -100, Y: -100}, {X: 480, Y: -100}, {X: 480, Y: 1100}, {X: -100, Y: 1100}}),
		"star":         geom.NewPolygon(geom.StarRing(geom.Point{X: 400, Y: 600}, 350, 120, 7)),
		"degenerate":   geom.NewPolygon(geom.Ring{{X: 100, Y: 100}, {X: 500, Y: 500}, {X: 300, Y: 300}}),
		"withHole": {
			Outer: geom.RegularRing(geom.Point{X: 500, Y: 500}, 450, 24),
			Holes: []geom.Ring{geom.RegularRing(geom.Point{X: 500, Y: 500}, 200, 16)},
		},
		"tiny": geom.NewPolygon(geom.RegularRing(geom.Point{X: 250.25, Y: 250.25}, 3, 8)),
	}
	for name, pg := range shapes {
		pl, err := ix.Classify(ctx, pg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPlanInvariants(t, ix, pg, pl)

		// The plan folds to exactly the brute-force stat.
		st, err := ix.RegionStat(ctx, pg, pl, ix.attrs["v"])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want core.RegionStat
		col := ps.Attr("v")
		for i := 0; i < ps.Len(); i++ {
			if pg.Contains(geom.Point{X: ps.X[i], Y: ps.Y[i]}) {
				want.Observe(col[i])
			}
		}
		if st.Count != want.Count {
			t.Fatalf("%s: count %d want %d", name, st.Count, want.Count)
		}
		if want.Count > 0 && (st.Min != want.Min || st.Max != want.Max) {
			t.Fatalf("%s: min/max %g/%g want %g/%g", name, st.Min, st.Max, want.Min, want.Max)
		}
		if math.Abs(st.Sum-want.Sum) > 1e-9*(1+math.Abs(want.Sum)) {
			t.Fatalf("%s: sum %g want %g", name, st.Sum, want.Sum)
		}
	}

	if pl, _ := ix.Classify(ctx, shapes["fullyOutside"]); len(pl.Interior)+len(pl.Fringe) != 0 {
		t.Fatalf("fully-outside polygon classified %d interior and %d fringe cells",
			len(pl.Interior), len(pl.Fringe))
	}
	if pl, _ := ix.Classify(ctx, shapes["coversGrid"]); len(pl.Interior) != 1 || len(pl.Fringe) != 0 {
		t.Fatalf("grid-covering polygon should classify the root cell interior, got %d interior / %d fringe",
			len(pl.Interior), len(pl.Fringe))
	}
}

func TestEmptyAndDegenerateSets(t *testing.T) {
	ctx := context.Background()

	empty := &data.PointSet{Name: "empty"}
	ix := mustBuild(t, empty, 4)
	pl, err := ix.Classify(ctx, geom.NewPolygon(geom.RegularRing(geom.Point{X: 0, Y: 0}, 10, 6)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ix.RegionStat(ctx, geom.Polygon{}, pl, nil)
	if err != nil || st.Count != 0 {
		t.Fatalf("empty set: stat %+v err %v", st, err)
	}

	// All points coincident: zero-extent bounds must still index.
	co := &data.PointSet{Name: "co", X: []float64{5, 5, 5}, Y: []float64{7, 7, 7},
		Attrs: []data.Column{{Name: "v", Values: []float64{1, 2, 3}}}}
	ix = mustBuild(t, co, 3)
	pg := geom.NewPolygon(geom.RegularRing(geom.Point{X: 5, Y: 7}, 2, 8))
	pl, err = ix.Classify(ctx, pg)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, ix, pg, pl)
	st, err = ix.RegionStat(ctx, pg, pl, ix.attrs["v"])
	if err != nil || st.Count != 3 || st.Sum != 6 {
		t.Fatalf("coincident set: stat %+v err %v", st, err)
	}
}

func TestStoreReuseAndCoalescing(t *testing.T) {
	ps := genPoints(t, 2000, 5)
	s := NewStore(5)
	ctx := context.Background()

	a, err := s.Get(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Get(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Get rebuilt instead of reusing")
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats after warm get: %+v", st)
	}

	// Concurrent cold gets on a fresh store coalesce on one build.
	s = NewStore(5)
	var wg sync.WaitGroup
	got := make([]*Index, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = s.Get(ctx, ps)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got index %p, caller 0 got %p", i, got[i], got[0])
		}
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("16 concurrent cold gets built %d times, want 1", st.Misses)
	}
}

func TestEngineCanServe(t *testing.T) {
	ps := genPoints(t, 100, 6)
	rs := &data.RegionSet{Name: "r", Regions: []data.Region{
		{ID: 0, Name: "r0", Poly: geom.NewPolygon(geom.RegularRing(geom.Point{X: 500, Y: 500}, 100, 8))},
	}}
	eng := NewEngine(core.NewRasterJoin(core.WithMode(core.Accurate)), 4)

	ok := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	if err := eng.CanServe(ok); err != nil {
		t.Fatalf("plain request rejected: %v", err)
	}
	cases := map[string]core.Request{
		"filter": {Points: ps, Regions: rs, Agg: core.Count,
			Filters: []core.Filter{{Attr: "v", Min: 0, Max: 1}}},
		"time":    {Points: ps, Regions: rs, Agg: core.Count, Time: &core.TimeFilter{Start: 0, End: 1}},
		"badAttr": {Points: ps, Regions: rs, Agg: core.Avg, Attr: "nope"},
	}
	for name, req := range cases {
		if err := eng.CanServe(req); err == nil {
			t.Fatalf("%s: CanServe accepted an unsupported request", name)
		}
	}
}
