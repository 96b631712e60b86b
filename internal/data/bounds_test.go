package data

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mercator"
)

// foldPoints and foldRegions are the bounds as a fresh fold computes them,
// independently of any memo.
func foldPoints(ps *PointSet) geom.BBox {
	b := geom.EmptyBBox()
	for i := range ps.X {
		b = b.ExtendPoint(geom.Point{X: ps.X[i], Y: ps.Y[i]})
	}
	return b
}

func foldRegions(rs *RegionSet) geom.BBox {
	b := geom.EmptyBBox()
	for _, r := range rs.Regions {
		b = b.Union(r.Poly.BBox())
	}
	return b
}

// sameBits fails unless got and want are bit-identical, signed zeros and
// infinities included.
func sameBits(t *testing.T, what string, got, want geom.BBox) {
	t.Helper()
	g := [4]float64{got.MinX, got.MinY, got.MaxX, got.MaxY}
	w := [4]float64{want.MinX, want.MinY, want.MaxX, want.MaxY}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: bounds %v, want %v (bit for bit)", what, got, want)
		}
	}
}

func boundsTestPoints(n int) *PointSet {
	return Generate(NYCTaxiConfig(n, 2009, time.January, 5))
}

// TestStampedBoundsMatchFold: a stamped set's bounds, first call and
// memoised repeats alike, are bit-identical to a fresh fold.
func TestStampedBoundsMatchFold(t *testing.T) {
	ps := boundsTestPoints(20000)
	ps.Stamp()
	for i := 0; i < 3; i++ {
		sameBits(t, "stamped points", ps.Bounds(), foldPoints(ps))
	}
	rs := VoronoiRegions("v", mercator.NYCBounds(), 40, 7, VoronoiOptions{JitterFrac: 0.1})
	rs.Stamp()
	for i := 0; i < 3; i++ {
		sameBits(t, "stamped regions", rs.Bounds(), foldRegions(rs))
	}
	empty := &PointSet{}
	empty.Stamp()
	if !empty.Bounds().IsEmpty() || !empty.Bounds().IsEmpty() {
		t.Fatal("a stamped empty set must keep empty bounds")
	}
}

// TestUnstampedBoundsFollowEdits: an unstamped set folds on every call, so
// bounds read before an in-place edit do not outlive it. ReadGeoJSONAuto
// is the case that needs it: it reads Bounds to detect degrees, then
// projects the layer in place.
func TestUnstampedBoundsFollowEdits(t *testing.T) {
	meters := VoronoiRegions("m", mercator.NYCBounds(), 6, 9, VoronoiOptions{})
	var buf bytes.Buffer
	if err := writeGeographic(&buf, meters); err != nil {
		t.Fatal(err)
	}
	rs, err := ReadGeoJSONAuto(bytes.NewReader(buf.Bytes()), "deg")
	if err != nil {
		t.Fatal(err)
	}
	if !mercator.NYCBounds().Expand(10).ContainsBBox(rs.Bounds()) {
		t.Fatalf("bounds %v still in degrees after the projection", rs.Bounds())
	}
	sameBits(t, "projected layer", rs.Bounds(), foldRegions(rs))
	rs.Stamp()
	sameBits(t, "projected layer, stamped", rs.Bounds(), foldRegions(rs))

	ps := smallSet()
	before := ps.Bounds()
	ps.X[0] = -50
	if got := ps.Bounds(); got == before || got.MinX != -50 {
		t.Fatalf("unstamped bounds %v ignored an edit (before %v)", got, before)
	}
}

// TestAppendCOWBounds: the grown set's bounds — the parent's united with
// the tail's — equal a fresh fold of the grown set when the tail lies
// outside the old extent, and the parent keeps its own.
func TestAppendCOWBounds(t *testing.T) {
	base := boundsTestPoints(5000)
	base.Stamp()
	old := base.Bounds()
	tail := base.Select([]int{0, 1, 2})
	tail.X[0], tail.Y[0] = old.MinX-1000, old.MaxY+500
	tail.X[1] = old.MaxX + 2000
	grown, err := base.AppendCOW(tail)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Stamp() == base.Stamp() {
		t.Fatal("grown set shares the parent's stamp")
	}
	sameBits(t, "grown", grown.Bounds(), foldPoints(grown))
	if grown.Bounds() == old {
		t.Fatal("the tail outside the old extent did not grow the bounds")
	}
	sameBits(t, "parent after append", base.Bounds(), old)

	// An unstamped, empty parent gives the tail's bounds.
	empty := &PointSet{Name: base.Name, T: []int64{}, Attrs: make([]Column, len(base.Attrs))}
	for i, c := range base.Attrs {
		empty.Attrs[i] = Column{Name: c.Name}
	}
	fresh, err := empty.AppendCOW(tail)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "appended to empty", fresh.Bounds(), foldPoints(tail))
}

// TestAppendCOWStampsParentFirst: a parent nobody has stamped yet gets its
// stamp from AppendCOW, before the child's, so the newer snapshot carries
// the larger stamp — the order the geoblocks store relies on.
func TestAppendCOWStampsParentFirst(t *testing.T) {
	ps := boundsTestPoints(100)
	grown, err := ps.AppendCOW(ps.Select([]int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if g, p := grown.Stamp(), ps.Stamp(); g <= p {
		t.Fatalf("grown stamp %d, parent stamp %d: the newer snapshot must carry the larger stamp", g, p)
	}
}

// TestBoundsConcurrentStamped: eight goroutines read the bounds of newly
// stamped sets at once; every reader sees the fold, and -race sees no
// unsynchronised access to the memo.
func TestBoundsConcurrentStamped(t *testing.T) {
	ps := boundsTestPoints(20000)
	rs := VoronoiRegions("v", mercator.NYCBounds(), 40, 7, VoronoiOptions{})
	wantP, wantR := foldPoints(ps), foldRegions(rs)
	ps.Stamp()
	rs.Stamp()
	var wg sync.WaitGroup
	got := make([][2]geom.BBox, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got[g] = [2]geom.BBox{ps.Bounds(), rs.Bounds()}
			}
		}(g)
	}
	wg.Wait()
	for _, b := range got {
		sameBits(t, "concurrent points", b[0], wantP)
		sameBits(t, "concurrent regions", b[1], wantR)
	}
}
