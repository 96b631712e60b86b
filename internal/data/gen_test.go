package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mercator"
)

func TestGenerateTaxiBasics(t *testing.T) {
	cfg := NYCTaxiConfig(10000, 2009, time.January, 1)
	ps := Generate(cfg)
	if ps.Len() != 10000 {
		t.Fatalf("Len = %d, want 10000", ps.Len())
	}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	if ps.Name != "taxi" {
		t.Errorf("Name = %q", ps.Name)
	}
	// All points inside NYC bounds.
	bounds := mercator.NYCBounds()
	if !bounds.ContainsBBox(ps.Bounds()) {
		t.Errorf("points escape bounds: %v vs %v", ps.Bounds(), bounds)
	}
	// Timestamps inside January 2009 and sorted.
	tmin, tmax, _ := ps.TimeRange()
	jan1 := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	feb1 := time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC).Unix()
	if tmin < jan1 || tmax >= feb1 {
		t.Errorf("time range [%d,%d] outside January 2009", tmin, tmax)
	}
	for i := 1; i < ps.Len(); i++ {
		if ps.T[i-1] > ps.T[i] {
			t.Fatal("generated set should be time-sorted")
		}
	}
	// Attribute columns present and positive.
	for _, name := range []string{"fare", "distance", "passengers"} {
		col := ps.Attr(name)
		if col == nil {
			t.Fatalf("missing attr %q", name)
		}
		for _, v := range col[:100] {
			if v <= 0 {
				t.Fatalf("attr %q has non-positive value %v", name, v)
			}
		}
	}
	// Passengers are integral.
	for _, v := range ps.Attr("passengers")[:200] {
		if v != math.Floor(v) {
			t.Fatalf("passengers %v not integral", v)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(NYCTaxiConfig(500, 2009, time.January, 7))
	b := Generate(NYCTaxiConfig(500, 2009, time.January, 7))
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.T[i] != b.T[i] {
			t.Fatalf("row %d differs between identical configs", i)
		}
	}
	c := Generate(NYCTaxiConfig(500, 2009, time.January, 8))
	same := true
	for i := range a.X {
		if a.X[i] != c.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different data")
	}
}

func TestGenerateSpatialSkew(t *testing.T) {
	// The Manhattan hotspots carry most of the mass: a 6km box around
	// midtown must hold far more than its area share of points.
	ps := Generate(NYCTaxiConfig(20000, 2009, time.January, 3))
	midtown := mercator.Project(mercator.LngLat{Lng: -73.985, Lat: 40.757})
	box := geom.BBox{
		MinX: midtown.X - 3000, MinY: midtown.Y - 3000,
		MaxX: midtown.X + 3000, MaxY: midtown.Y + 3000,
	}
	in := 0
	for i := range ps.X {
		if box.Contains(geom.Point{X: ps.X[i], Y: ps.Y[i]}) {
			in++
		}
	}
	areaShare := box.Area() / mercator.NYCBounds().Area()
	share := float64(in) / float64(ps.Len())
	if share < 10*areaShare {
		t.Errorf("midtown share %.3f should dwarf area share %.5f", share, areaShare)
	}
	if share < 0.15 {
		t.Errorf("midtown share %.3f, want >= 0.15 (strong skew)", share)
	}
}

func TestGenerateDiurnalPattern(t *testing.T) {
	cfg := NYCTaxiConfig(30000, 2009, time.January, 5)
	ps := Generate(cfg)
	// Rush hours (7-9, 18-20 UTC-as-local) must out-populate dead hours (2-4).
	rush, dead := 0, 0
	for _, ts := range ps.T {
		h := (ts % 86400) / 3600
		switch {
		case h >= 7 && h < 9, h >= 18 && h < 20:
			rush++
		case h >= 2 && h < 4:
			dead++
		}
	}
	if rush <= dead*2 {
		t.Errorf("rush=%d dead=%d: diurnal cycle too weak", rush, dead)
	}
}

func TestGenerateFareDistanceCorrelation(t *testing.T) {
	ps := Generate(NYCTaxiConfig(20000, 2009, time.January, 11))
	center := mercator.Project(mercator.LngLat{Lng: -73.985, Lat: 40.757})
	fare := ps.Attr("fare")
	// Mean fare for far points (>8km) must exceed mean for near (<2km).
	var nearSum, farSum float64
	var nearN, farN int
	for i := range ps.X {
		d := geom.Point{X: ps.X[i], Y: ps.Y[i]}.Dist(center) / 1000
		if d < 2 {
			nearSum += fare[i]
			nearN++
		} else if d > 8 {
			farSum += fare[i]
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Fatal("degenerate spatial split")
	}
	if farSum/float64(farN) <= nearSum/float64(nearN) {
		t.Errorf("fares should grow with distance: near=%.2f far=%.2f",
			nearSum/float64(nearN), farSum/float64(farN))
	}
}

func TestGenerateDropoffs(t *testing.T) {
	ps := Generate(NYCTaxiConfig(5000, 2009, time.January, 21))
	dx := ps.Attr(DropoffXAttr)
	dy := ps.Attr(DropoffYAttr)
	if dx == nil || dy == nil {
		t.Fatal("taxi data should carry dropoff columns")
	}
	bounds := mercator.NYCBounds()
	for i := 0; i < 500; i++ {
		if !bounds.Contains(geom.Point{X: dx[i], Y: dy[i]}) {
			t.Fatalf("dropoff %d outside NYC: (%v,%v)", i, dx[i], dy[i])
		}
	}
	// Fares must track trip length (origin->destination), not noise: long
	// trips cost more than short ones on average.
	fare := ps.Attr("fare")
	res := mercator.GroundResolution(mercator.NYC.CenterLat)
	var shortSum, longSum float64
	var shortN, longN int
	for i := range fare {
		km := geom.Point{X: ps.X[i], Y: ps.Y[i]}.
			Dist(geom.Point{X: dx[i], Y: dy[i]}) * res / 1000
		if km < 2 {
			shortSum += fare[i]
			shortN++
		} else if km > 10 {
			longSum += fare[i]
			longN++
		}
	}
	if shortN == 0 || longN == 0 {
		t.Fatal("degenerate trip-length split")
	}
	if longSum/float64(longN) <= 2*shortSum/float64(shortN) {
		t.Errorf("long trips should cost much more: short=%.2f long=%.2f",
			shortSum/float64(shortN), longSum/float64(longN))
	}
	// Distance column tracks the same trips.
	dist := ps.Attr("distance")
	for i := 0; i < 200; i++ {
		km := geom.Point{X: ps.X[i], Y: ps.Y[i]}.
			Dist(geom.Point{X: dx[i], Y: dy[i]}) * res / 1000
		if dist[i] < km*0.5-0.2 || dist[i] > km*2.5+0.5 {
			t.Fatalf("trip %d: distance attr %v vs crow-flies %v km", i, dist[i], km)
		}
	}
}

func TestOtherDatasets(t *testing.T) {
	for _, cfg := range []GenConfig{
		NYC311Config(2000, 2011, time.June, 2),
		NYCPhotosConfig(2000, 2012, time.July, 2),
	} {
		ps := Generate(cfg)
		if ps.Len() != 2000 {
			t.Errorf("%s: Len = %d", cfg.Name, ps.Len())
		}
		if err := ps.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if len(ps.Attrs) == 0 {
			t.Errorf("%s: no attributes", cfg.Name)
		}
	}
}

func TestGenerateNoHotspots(t *testing.T) {
	cfg := GenConfig{
		Name: "uniform", N: 1000, Seed: 1,
		Bounds: geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Start:  time.Unix(0, 0), End: time.Unix(1000, 0),
	}
	ps := Generate(cfg)
	if ps.Len() != 1000 {
		t.Fatalf("Len = %d", ps.Len())
	}
	// Roughly uniform: each quadrant holds 15-35%.
	quad := [4]int{}
	for i := range ps.X {
		q := 0
		if ps.X[i] > 50 {
			q |= 1
		}
		if ps.Y[i] > 50 {
			q |= 2
		}
		quad[q]++
	}
	for q, n := range quad {
		if n < 150 || n > 350 {
			t.Errorf("quadrant %d has %d points, want 150-350", q, n)
		}
	}
}

// generateGolden is the recorded digest of TestGenerateDigest's data: any
// change to generation, the time sort or the Voronoi construction that
// moves one bit of one column or one vertex moves it.
const generateGolden = "240bc2d2e0565c9233b8ee6bd0100ab07dcbe8b4d88cd24bb1c360387f4ba25f"

// TestGenerateDigest hashes every column of 20 k taxi, 311 and photo points
// and every vertex of the scene's three layers (neighborhoods, tracts and
// the 64×64 grid, built as workload.NYC builds them), so a faster sort or
// cell construction is proven byte-identical to the one it replaces.
func TestGenerateDigest(t *testing.T) {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, cfg := range []GenConfig{
		NYCTaxiConfig(20_000, 2009, time.January, 2009),
		NYC311Config(20_000, 2009, time.January, 2010),
		NYCPhotosConfig(20_000, 2009, time.January, 2011),
	} {
		ps := Generate(cfg)
		h.Write([]byte(ps.Name))
		put(uint64(ps.Len()))
		for i := range ps.X {
			put(math.Float64bits(ps.X[i]))
			put(math.Float64bits(ps.Y[i]))
			put(uint64(ps.T[i]))
		}
		for _, c := range ps.Attrs {
			h.Write([]byte(c.Name))
			for _, v := range c.Values {
				put(math.Float64bits(v))
			}
		}
	}
	bounds := mercator.NYCBounds()
	for _, rs := range []*RegionSet{
		VoronoiRegions("neighborhoods", bounds, 260, 2010, VoronoiOptions{JitterFrac: 0.12}),
		VoronoiRegions("tracts", bounds, 2048, 2011, VoronoiOptions{JitterFrac: 0.08}),
		GridRegions("grid64", bounds, 64, 64),
	} {
		h.Write([]byte(rs.Name))
		put(uint64(rs.Len()))
		for _, r := range rs.Regions {
			put(uint64(r.ID))
			h.Write([]byte(r.Name))
			for _, ring := range append([]geom.Ring{r.Poly.Outer}, r.Poly.Holes...) {
				put(uint64(len(ring)))
				for _, p := range ring {
					put(math.Float64bits(p.X))
					put(math.Float64bits(p.Y))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generateGolden {
		t.Errorf("generated data digest %s, want %s", got, generateGolden)
	}
}

// TestDiurnalTableMatchesDirect: the memoised weight is the direct call's,
// bit for bit, on both its first and its repeated lookups, for timestamps
// of either sign.
func TestDiurnalTableMatchesDirect(t *testing.T) {
	for _, amp := range []float64{0.3, 0.7, 1} {
		d := diurnalTable{amplitude: amp, w: make([]float64, 86400)}
		for _, ts := range []int64{0, 1, 3599, 28_800, 86_399, 86_400, 1_230_768_000, 1_230_796_799,
			-1, -3600, -86_399, -86_400, -86_401, -1_230_768_000} {
			want := math.Float64bits(diurnalWeight(ts, amp))
			for pass := 0; pass < 2; pass++ {
				if got := math.Float64bits(d.weight(ts)); got != want {
					t.Fatalf("amp %v ts %d pass %d: table weight %x, direct %x", amp, ts, pass, got, want)
				}
			}
		}
	}
}
