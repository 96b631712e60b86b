package gpu

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/geomtest"
	"repro/internal/raster"
)

func testWorld() geom.BBox { return geom.BBox{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8} }

func TestNewCanvasLimits(t *testing.T) {
	d := New(WithMaxTextureSize(64))
	if d.MaxTextureSize() != 64 {
		t.Fatalf("MaxTextureSize = %d, want 64", d.MaxTextureSize())
	}
	if _, err := d.NewCanvas(testWorld(), 64, 64); err != nil {
		t.Errorf("64x64 canvas should fit: %v", err)
	}
	if _, err := d.NewCanvas(testWorld(), 65, 64); err == nil {
		t.Error("65x64 canvas should exceed the limit")
	} else if !strings.Contains(err.Error(), "max texture size") {
		t.Errorf("unhelpful error: %v", err)
	}
	if _, err := d.NewCanvas(testWorld(), 0, 5); err == nil {
		t.Error("zero-width canvas should fail")
	}
}

func TestWithMaxTextureSizeIgnoresNonPositive(t *testing.T) {
	d := New(WithMaxTextureSize(-5))
	if d.MaxTextureSize() != DefaultMaxTextureSize {
		t.Errorf("negative option should be ignored, got %d", d.MaxTextureSize())
	}
}

func TestDrawPointsCullsAndShades(t *testing.T) {
	d := New()
	c, err := d.NewCanvas(testWorld(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.5, 7.5, -1, 9, 3.5}
	ys := []float64{0.5, 7.5, 4, 4, 3.5}
	tex := NewTexture(8, 8)
	c.DrawPoints(len(xs), func(i int) (float64, float64) { return xs[i], ys[i] },
		func(px, py, i int) { tex.Add(px, py, 1) })

	if tex.At(0, 0) != 1 || tex.At(7, 7) != 1 || tex.At(3, 3) != 1 {
		t.Error("in-window points should land in their pixels")
	}
	if tex.Sum() != 3 {
		t.Errorf("total fragments = %v, want 3 (two culled)", tex.Sum())
	}
}

func TestTiles(t *testing.T) {
	d := New(WithMaxTextureSize(16))
	full := raster.NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}, 40, 40)
	type tile struct{ offX, offY, w, h int }
	var got []tile
	err := d.Tiles(full, func(c *Canvas, offX, offY int) error {
		got = append(got, tile{offX, offY, c.T.W, c.T.H})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 40/16 → tiles at offsets 0,16,32 in each axis: 3x3 = 9 tiles; last
	// row/col are 8 wide/high.
	if len(got) != 9 {
		t.Fatalf("tile count = %d, want 9", len(got))
	}
	area := 0
	for _, tl := range got {
		area += tl.w * tl.h
		if tl.w > 16 || tl.h > 16 {
			t.Errorf("tile %v exceeds max texture size", tl)
		}
	}
	if area != 1600 {
		t.Errorf("tiles cover %d pixels, want 1600", area)
	}
}

func TestTilesPixelAlignment(t *testing.T) {
	// A tile's pixel (0,0) center must coincide with the corresponding
	// full-resolution pixel center, or tiled results would drift.
	d := New(WithMaxTextureSize(8))
	full := raster.NewTransform(geom.BBox{MinX: -3, MinY: 2, MaxX: 29, MaxY: 34}, 20, 20)
	center := func(t raster.Transform, px, py int) geom.Point {
		return geom.Point{X: t.World.MinX + (float64(px)+0.5)*t.PixelWidth(),
			Y: t.World.MinY + (float64(py)+0.5)*t.PixelHeight()}
	}
	err := d.Tiles(full, func(c *Canvas, offX, offY int) error {
		want := center(full, offX, offY)
		got := center(c.T, 0, 0)
		if !geomtest.NearEq(got, want, 1e-9) {
			t.Errorf("tile (%d,%d) misaligned: %v vs %v", offX, offY, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTextureOps(t *testing.T) {
	tex := NewTexture(4, 3)
	tex.Set(1, 2, 5)
	tex.Add(1, 2, 2.5)
	tex.AddAt(2*4+1, 0.5)
	if tex.At(1, 2) != 8 {
		t.Errorf("At = %v, want 8", tex.At(1, 2))
	}
	if tex.Sum() != 8 {
		t.Errorf("Sum = %v, want 8", tex.Sum())
	}
	tex.Clear()
	if tex.Sum() != 0 {
		t.Error("Clear should zero the texture")
	}
}

func TestTextureBlendEquations(t *testing.T) {
	tex := NewTexture(2, 2)
	tex.Fill(100)
	if tex.At(0, 0) != 100 || tex.At(1, 1) != 100 {
		t.Fatal("Fill should set every pixel")
	}
	// MIN blending only lowers.
	tex.TakeMinAt(0, 42)
	tex.TakeMinAt(0, 77)
	if tex.At(0, 0) != 42 {
		t.Errorf("TakeMinAt = %v, want 42", tex.At(0, 0))
	}
	// MAX blending only raises.
	tex.Fill(-100)
	tex.TakeMaxAt(1, 3)
	tex.TakeMaxAt(1, -5)
	if tex.At(1, 0) != 3 {
		t.Errorf("TakeMaxAt = %v, want 3", tex.At(1, 0))
	}
}
