package data

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mercator"
)

func testBounds() geom.BBox { return geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000} }

func TestVoronoiPartition(t *testing.T) {
	rs := VoronoiRegions("nbhd", testBounds(), 50, 3, VoronoiOptions{})
	if rs.Len() != 50 {
		t.Fatalf("regions = %d, want 50", rs.Len())
	}
	// Without jitter the cells partition the bounds: areas sum to the
	// bounds area.
	var area float64
	for _, r := range rs.Regions {
		if err := r.Poly.Validate(); err != nil {
			t.Fatalf("region %d invalid: %v", r.ID, err)
		}
		area += r.Poly.Area()
	}
	if math.Abs(area-testBounds().Area()) > 1e-6*testBounds().Area() {
		t.Errorf("cell areas sum to %v, want %v", area, testBounds().Area())
	}
	// Every cell inside bounds.
	if !testBounds().ContainsBBox(rs.Bounds()) {
		t.Error("cells escape bounds")
	}
	// IDs are dense and follow storage order.
	for i, r := range rs.Regions {
		if r.ID != i {
			t.Fatalf("region %d has ID %d", i, r.ID)
		}
	}
}

func TestVoronoiPartitionCoversRandomPoints(t *testing.T) {
	rs := VoronoiRegions("nbhd", testBounds(), 30, 5, VoronoiOptions{})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		hits := 0
		for _, r := range rs.Regions {
			if r.Poly.Contains(p) {
				hits++
			}
		}
		// A point interior to one cell is in exactly one; points near
		// shared edges may register zero due to open boundaries.
		if hits > 1 {
			t.Fatalf("point %v in %d cells, want <= 1", p, hits)
		}
	}
}

func TestVoronoiJitter(t *testing.T) {
	plain := VoronoiRegions("nbhd", testBounds(), 20, 7, VoronoiOptions{})
	jit := VoronoiRegions("nbhd", testBounds(), 20, 7, VoronoiOptions{JitterFrac: 0.1})
	if jit.VertexCount() <= plain.VertexCount() {
		t.Errorf("jitter should densify: %d <= %d vertices",
			jit.VertexCount(), plain.VertexCount())
	}
	// Jittered regions stay inside bounds.
	if !testBounds().ContainsBBox(jit.Bounds()) {
		t.Error("jittered cells escape bounds")
	}
	// Region count preserved.
	if jit.Len() != plain.Len() {
		t.Errorf("jitter changed region count: %d vs %d", jit.Len(), plain.Len())
	}
}

func TestVoronoiSingleRegion(t *testing.T) {
	rs := VoronoiRegions("one", testBounds(), 1, 1, VoronoiOptions{})
	if rs.Len() != 1 {
		t.Fatalf("regions = %d", rs.Len())
	}
	if math.Abs(rs.Regions[0].Poly.Area()-testBounds().Area()) > 1e-9 {
		t.Error("single cell should be the whole bounds")
	}
	// n < 1 clamps.
	if VoronoiRegions("x", testBounds(), 0, 1, VoronoiOptions{}).Len() != 1 {
		t.Error("n=0 should clamp to 1")
	}
}

func TestGridRegions(t *testing.T) {
	rs := GridRegions("grid", testBounds(), 4, 5)
	if rs.Len() != 20 {
		t.Fatalf("regions = %d, want 20", rs.Len())
	}
	var area float64
	for _, r := range rs.Regions {
		area += r.Poly.Area()
	}
	if math.Abs(area-1e6) > 1e-6 {
		t.Errorf("grid area = %v, want 1e6", area)
	}
	// Cell (0,0) has ID 0 and spans [0,250]x[0,200].
	want := geom.BBox{MinX: 0, MinY: 0, MaxX: 250, MaxY: 200}
	if b := rs.Regions[0].Poly.BBox(); b != want {
		t.Errorf("cell 0 bbox = %v, want %v", b, want)
	}
	if GridRegions("g", testBounds(), 0, 0).Len() != 1 {
		t.Error("0x0 grid should clamp to 1x1")
	}
}

func TestSimplifyRegions(t *testing.T) {
	rs := VoronoiRegions("nbhd", testBounds(), 20, 7, VoronoiOptions{JitterFrac: 0.1})
	lod := SimplifyRegions(rs, 10)
	if lod.Len() != rs.Len() {
		t.Fatalf("region count changed: %d vs %d", lod.Len(), rs.Len())
	}
	if lod.VertexCount() >= rs.VertexCount() {
		t.Errorf("LOD should shed vertices: %d -> %d", rs.VertexCount(), lod.VertexCount())
	}
	// Identity preserved, areas close, polygons valid.
	var areaDrift float64
	for i := range rs.Regions {
		if lod.Regions[i].ID != rs.Regions[i].ID || lod.Regions[i].Name != rs.Regions[i].Name {
			t.Fatalf("region %d identity changed", i)
		}
		if err := lod.Regions[i].Poly.Validate(); err != nil {
			t.Fatalf("region %d invalid after LOD: %v", i, err)
		}
		areaDrift += math.Abs(lod.Regions[i].Poly.Area() - rs.Regions[i].Poly.Area())
	}
	if total := testBounds().Area(); areaDrift > total/20 {
		t.Errorf("area drift %v too large vs total %v", areaDrift, total)
	}
	// Zero tolerance is an identity-ish copy.
	same := SimplifyRegions(rs, 0)
	if same.VertexCount() != rs.VertexCount() {
		t.Errorf("tol=0 changed vertices: %d vs %d", same.VertexCount(), rs.VertexCount())
	}
	// The original layer is untouched.
	if rs.Regions[0].Poly.VertexCount() == 0 {
		t.Error("source mutated")
	}
}

func TestGeoJSONGeographicRoundTrip(t *testing.T) {
	// Build a layer in mercator meters over NYC, write as degrees, read
	// back, and compare.
	rs := VoronoiRegions("nbhd", mercator.NYCBounds(), 8, 3, VoronoiOptions{})
	var buf bytes.Buffer
	if err := writeGeographic(&buf, rs); err != nil {
		t.Fatal(err)
	}
	// The wire format is in plausible NYC degrees.
	var probe map[string]any
	if err := json.Unmarshal(buf.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGeoJSONAuto(bytes.NewReader(buf.Bytes()), "nbhd")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rs.Len() {
		t.Fatalf("regions: %d vs %d", got.Len(), rs.Len())
	}
	for i := range rs.Regions {
		a := rs.Regions[i].Poly.Centroid()
		b := got.Regions[i].Poly.Centroid()
		if a.Dist(b) > 0.5 { // half a meter after the double projection
			t.Fatalf("region %d centroid moved %v m", i, a.Dist(b))
		}
	}
	if _, err := ReadGeoJSONAuto(strings.NewReader("{"), "x"); err == nil {
		t.Error("bad json should fail")
	}
}

func TestReadGeoJSONAuto(t *testing.T) {
	// Meters input passes through untouched.
	meters := VoronoiRegions("m", mercator.NYCBounds(), 5, 9, VoronoiOptions{})
	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, meters); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGeoJSONAuto(bytes.NewReader(buf.Bytes()), "m")
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Regions[0].Poly.Centroid().Dist(meters.Regions[0].Poly.Centroid()); d > 1e-9 {
		t.Errorf("meters input moved by %v", d)
	}
	// Degrees input gets projected: centroids land in NYC mercator bounds.
	buf.Reset()
	if err := writeGeographic(&buf, meters); err != nil {
		t.Fatal(err)
	}
	got, err = ReadGeoJSONAuto(bytes.NewReader(buf.Bytes()), "deg")
	if err != nil {
		t.Fatal(err)
	}
	if !mercator.NYCBounds().Expand(10).ContainsBBox(got.Bounds()) {
		t.Errorf("degrees input not projected: bounds %v", got.Bounds())
	}
	if d := got.Regions[0].Poly.Centroid().Dist(meters.Regions[0].Poly.Centroid()); d > 0.5 {
		t.Errorf("projected centroid moved %v m", d)
	}
}

func TestUserPolygon(t *testing.T) {
	pg := UserPolygon(geom.Pt(500, 500), 100, 4)
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !pg.Contains(geom.Pt(500, 500)) {
		t.Error("user polygon should contain its center")
	}
	if pg.VertexCount() < 10 {
		t.Errorf("user polygon has %d vertices, want >= 10", pg.VertexCount())
	}
	// Deterministic per seed.
	pg2 := UserPolygon(geom.Pt(500, 500), 100, 4)
	if !pg.Outer[0].Eq(pg2.Outer[0]) {
		t.Error("same seed should give same polygon")
	}
}

func TestRegionSetVertexCountAndBounds(t *testing.T) {
	rs := GridRegions("g", testBounds(), 2, 2)
	if rs.VertexCount() != 16 {
		t.Errorf("VertexCount = %d, want 16", rs.VertexCount())
	}
	if rs.Bounds() != testBounds() {
		t.Errorf("Bounds = %v", rs.Bounds())
	}
	empty := &RegionSet{}
	if !empty.Bounds().IsEmpty() {
		t.Error("empty set bounds should be empty")
	}
}

// referenceVoronoi is VoronoiRegions as it was before the nearest-first
// heap: every site's cell clipped against all other sites in the order
// sort.Slice puts their distances, up to the same security radius.
func referenceVoronoi(name string, bounds geom.BBox, n int, seed int64, opts VoronoiOptions) *RegionSet {
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	sites := make([]geom.Point, n)
	for i := range sites {
		sites[i] = geom.Point{
			X: bounds.MinX + rng.Float64()*bounds.Width(),
			Y: bounds.MinY + rng.Float64()*bounds.Height(),
		}
	}
	rs := &RegionSet{Name: name, Regions: make([]Region, 0, n)}
	order := make([]int, n)
	rect := geom.RectRing(bounds)
	for i, si := range sites {
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(a, b int) bool {
			return sites[order[a]].DistSq(si) < sites[order[b]].DistSq(si)
		})
		cell := rect.Clone()
		for _, j := range order {
			if j == i {
				continue
			}
			sj := sites[j]
			maxR2 := 0.0
			for _, v := range cell {
				if d := v.DistSq(si); d > maxR2 {
					maxR2 = d
				}
			}
			if si.DistSq(sj) > 4*maxR2 {
				break
			}
			cell = geom.ClipRingToHalfPlane(cell, si.Lerp(sj, 0.5), sj.Sub(si))
			if cell == nil {
				break
			}
		}
		if cell == nil {
			continue
		}
		if opts.JitterFrac > 0 {
			cell = jitterRing(cell, rng, opts, bounds)
		}
		rs.Regions = append(rs.Regions, Region{
			ID:   len(rs.Regions),
			Name: fmt.Sprintf("%s-%03d", name, len(rs.Regions)),
			Poly: geom.NewPolygon(cell),
		})
	}
	return rs
}

// TestVoronoiMatchesReference: the nearest-first construction produces
// the sort-based one's regions bit for bit — IDs, names and every vertex
// of every ring — with and without jitter.
func TestVoronoiMatchesReference(t *testing.T) {
	bounds := mercator.NYCBounds()
	for _, n := range []int{1, 2, 3, 260, 512} {
		for _, opts := range []VoronoiOptions{{}, {JitterFrac: 0.1}} {
			got := VoronoiRegions("v", bounds, n, int64(n)+7, opts)
			want := referenceVoronoi("v", bounds, n, int64(n)+7, opts)
			if got.Len() != want.Len() {
				t.Fatalf("n=%d jitter=%v: %d regions, want %d", n, opts.JitterFrac, got.Len(), want.Len())
			}
			for k, r := range got.Regions {
				w := want.Regions[k]
				if r.ID != w.ID || r.Name != w.Name || !ringsBitEqual(r.Poly.Outer, w.Poly.Outer) ||
					len(r.Poly.Holes) != len(w.Poly.Holes) {
					t.Fatalf("n=%d jitter=%v: region %d differs from the reference", n, opts.JitterFrac, k)
				}
				for h := range r.Poly.Holes {
					if !ringsBitEqual(r.Poly.Holes[h], w.Poly.Holes[h]) {
						t.Fatalf("n=%d jitter=%v: region %d hole %d differs", n, opts.JitterFrac, k, h)
					}
				}
			}
		}
	}
}

func ringsBitEqual(a, b geom.Ring) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// writeGeographic encodes the region set with coordinates converted back
// to geographic degrees (EPSG:4326): the input ReadGeoJSONAuto projects.
func writeGeographic(w io.Writer, rs *RegionSet) error {
	out := &RegionSet{Name: rs.Name, Regions: make([]Region, len(rs.Regions))}
	unproject := func(ring geom.Ring) geom.Ring {
		o := make(geom.Ring, len(ring))
		for i, p := range ring {
			ll := mercator.Unproject(p)
			o[i] = geom.Point{X: ll.Lng, Y: ll.Lat}
		}
		return o
	}
	for i, reg := range rs.Regions {
		pg := geom.Polygon{Outer: unproject(reg.Poly.Outer)}
		for _, h := range reg.Poly.Holes {
			pg.Holes = append(pg.Holes, unproject(h))
		}
		out.Regions[i] = Region{ID: reg.ID, Name: reg.Name, Poly: pg}
	}
	return WriteGeoJSON(w, out)
}

// TestSiteWalkOrder: a walk run to the end returns every other site
// exactly in (squared distance, index) order — the order a sort of all
// sites gives — with coincident sites, sites on the bounds' edges, and
// bounds too thin for a grid.
func TestSiteWalkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n      int
		bounds geom.BBox
	}{
		{1, geom.BBox{MaxX: 10, MaxY: 10}},
		{2, geom.BBox{MaxX: 10, MaxY: 10}},
		{9, geom.BBox{MinX: -5, MaxX: 5, MaxY: 1}},
		{300, geom.BBox{MaxX: 1000, MaxY: 250}},
		{300, geom.BBox{MinX: 7, MaxX: 7, MaxY: 100}},
	} {
		sites := make([]geom.Point, tc.n)
		for i := range sites {
			switch {
			case i%10 == 3 && i > 0: // coincident with the previous site
				sites[i] = sites[i-1]
			case i%10 == 7: // on the max corner
				sites[i] = geom.Point{X: tc.bounds.MaxX, Y: tc.bounds.MaxY}
			default:
				sites[i] = geom.Point{
					X: tc.bounds.MinX + rng.Float64()*tc.bounds.Width(),
					Y: tc.bounds.MinY + rng.Float64()*tc.bounds.Height(),
				}
			}
		}
		w := newSiteWalk(sites, tc.bounds)
		for i := range sites {
			var want []int
			for j := range sites {
				if j != i {
					want = append(want, j)
				}
			}
			sort.SliceStable(want, func(a, b int) bool {
				return sites[want[a]].DistSq(sites[i]) < sites[want[b]].DistSq(sites[i])
			})
			w.reset(i)
			for k, wj := range want {
				j, ok := w.next()
				if !ok || j != wj {
					t.Fatalf("n=%d bounds=%v site %d: pop %d is %d (ok=%v), want %d", tc.n, tc.bounds, i, k, j, ok, wj)
				}
			}
			if j, ok := w.next(); ok {
				t.Fatalf("n=%d site %d: walk returned %d past the last site", tc.n, i, j)
			}
		}
	}
}
