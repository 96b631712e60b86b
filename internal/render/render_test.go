package render

import (
	"bytes"
	"image/png"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
)

func testLayer() *data.RegionSet {
	return data.GridRegions("g", geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 2, 2)
}

func TestRampsEndpoints(t *testing.T) {
	for name, ramp := range map[string]Ramp{
		"heat": HeatRamp, "blue": BlueRamp,
	} {
		lo := ramp(0)
		hi := ramp(1)
		if lo == hi {
			t.Errorf("%s: ramp endpoints identical", name)
		}
		if lo.A != 255 || hi.A != 255 {
			t.Errorf("%s: ramp should be opaque", name)
		}
		// Out-of-range and NaN inputs clamp instead of panicking.
		_ = ramp(-5)
		_ = ramp(7)
		_ = ramp(math.NaN())
	}
}

func TestChoroplethColorsRegions(t *testing.T) {
	rs := testLayer()
	// Values low → high across the four cells; cell 3 (top-right) max.
	values := []float64{1, 2, 3, 4}
	img, err := Choropleth(rs, values, 200, BlueRamp)
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != 200 || b.Dy() != 200 {
		t.Fatalf("image dims = %v", b)
	}
	// Sample deep inside cell 0 (bottom-left quadrant → image bottom-left)
	// and cell 3 (top-right quadrant → image top-right).
	c0 := img.RGBAAt(50, 150) // world (25,25)
	c3 := img.RGBAAt(150, 50) // world (75,75)
	want0, want3 := BlueRamp(0), BlueRamp(1)
	if c0 != want0 {
		t.Errorf("low cell color = %v, want %v", c0, want0)
	}
	if c3 != want3 {
		t.Errorf("high cell color = %v, want %v", c3, want3)
	}
	// A boundary pixel is dark: sample the vertical midline.
	mid := img.RGBAAt(100, 100)
	if mid.R > 100 {
		t.Errorf("midline pixel %v should be an outline", mid)
	}
}

func TestChoroplethNaNAndErrors(t *testing.T) {
	rs := testLayer()
	values := []float64{1, math.NaN(), 3, 4}
	img, err := Choropleth(rs, values, 100, BlueRamp)
	if err != nil {
		t.Fatal(err)
	}
	// NaN cell (index 1 = bottom-right quadrant; image y flipped) renders
	// gray. World (75,25) → image (75, 74).
	c := img.RGBAAt(75, 74)
	if c.R != 224 || c.G != 224 {
		t.Errorf("NaN cell color = %v, want gray", c)
	}
	if _, err := Choropleth(rs, []float64{1}, 100, BlueRamp); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Choropleth(&data.RegionSet{}, nil, 100, BlueRamp); err == nil {
		t.Error("empty region set should fail")
	}
}

func TestDensity(t *testing.T) {
	counts := make([]float64, 16)
	counts[5] = 100 // cell (1,1)
	img, err := Density(counts, 4, 4, HeatRamp)
	if err != nil {
		t.Fatal(err)
	}
	// Hot cell is the brightest non-transparent pixel; empty cells are
	// transparent.
	hot := img.RGBAAt(1, 2) // y flipped: grid y=1 → image y=2
	if hot.A == 0 {
		t.Error("hot cell should be opaque")
	}
	if img.RGBAAt(0, 0).A != 0 {
		t.Error("empty cell should be transparent")
	}
	if _, err := Density(counts, 3, 3, HeatRamp); err == nil {
		t.Error("dimension mismatch should fail")
	}
	// All-zero grid renders without error.
	if _, err := Density(make([]float64, 16), 4, 4, HeatRamp); err != nil {
		t.Errorf("zero grid: %v", err)
	}
}

func TestLegendAndPNGRoundTrip(t *testing.T) {
	// A 64x8 density ramp: the PNG must decode to the same pixels.
	counts := make([]float64, 64*8)
	for i := range counts {
		counts[i] = float64(i % 64)
	}
	img, err := Density(counts, 64, 8, HeatRamp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds() != img.Bounds() {
		t.Fatalf("decoded dims = %v, want %v", decoded.Bounds(), img.Bounds())
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 64; x++ {
			r0, g0, b0, a0 := img.At(x, y).RGBA()
			r1, g1, b1, a1 := decoded.At(x, y).RGBA()
			if [4]uint32{r0, g0, b0, a0} != [4]uint32{r1, g1, b1, a1} {
				t.Fatalf("pixel (%d,%d) changed in the round trip", x, y)
			}
		}
	}
}
