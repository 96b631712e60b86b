package gpu

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/raster"
)

func TestTexturePoolReuse(t *testing.T) {
	d := New()
	a := d.AcquireTexture(4, 4)
	a.Set(1, 1, 42)
	if got := d.LiveTextures(); got != 1 {
		t.Fatalf("live textures = %d, want 1", got)
	}
	d.ReleaseTexture(a)
	if got := d.LiveTextures(); got != 0 {
		t.Fatalf("live textures after release = %d, want 0", got)
	}

	// Same pixel count → the pooled allocation comes back, cleared, even
	// under a different aspect ratio.
	b := d.AcquireTexture(2, 8)
	if &b.Data[0] != &a.Data[0] {
		t.Fatal("expected pooled allocation to be reused")
	}
	if b.W != 2 || b.H != 8 {
		t.Fatalf("reused texture dims = %dx%d, want 2x8", b.W, b.H)
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("reused texture not cleared at %d: %v", i, v)
		}
	}
	d.ReleaseTexture(b)

	// Different pixel count → fresh allocation.
	c := d.AcquireTexture(3, 3)
	if len(c.Data) != 9 {
		t.Fatalf("len(Data) = %d, want 9", len(c.Data))
	}
	d.ReleaseTexture(c)
	if got := d.LiveTextures(); got != 0 {
		t.Fatalf("live textures = %d, want 0", got)
	}

	d.ReleaseTexture(nil) // no-op
}

// requireFilled fails unless every texel of tex holds v, bit for bit.
func requireFilled(t *testing.T, tex *Texture, v float64, what string) {
	t.Helper()
	for i, x := range tex.Data {
		if math.Float64bits(x) != math.Float64bits(v) {
			t.Fatalf("%s: texel %d holds %v, want %v", what, i, x, v)
		}
	}
}

// TestTexturePoolMarks: a texture released marked goes to the next acquire
// of its mark as it is, and to any other acquire filled; one released
// unmarked is always filled; FreeMarks reports a mark a texel breaks.
func TestTexturePoolMarks(t *testing.T) {
	d := New()
	inf, negZero := math.Inf(1), math.Copysign(0, -1)

	lo := d.AcquireTextureFilled(4, 4, inf)
	requireFilled(t, lo, inf, "fresh MIN texture")
	d.ReleaseTextureFilled(lo, inf)
	sum := d.AcquireTexture(4, 4)
	if &sum.Data[0] != &lo.Data[0] {
		t.Fatal("expected the pooled MIN texture to be reused")
	}
	requireFilled(t, sum, 0, "MIN texture handed to a SUM target")

	// Drawn on and released unmarked, as a caller outside a join does: the
	// next acquire fills it whatever it asks for.
	sum.Set(2, 3, 7)
	d.ReleaseTexture(sum)
	requireFilled(t, d.AcquireTextureFilled(2, 8, math.Inf(-1)), math.Inf(-1), "unmarked texture")

	// Each acquire prefers the texture marked with its value, and -0 is not
	// a mark of 0.
	a, b, c := d.AcquireTexture(4, 4), d.AcquireTextureFilled(4, 4, negZero), d.AcquireTextureFilled(4, 4, inf)
	d.ReleaseTextureFilled(a, 0)
	d.ReleaseTextureFilled(c, inf)
	if got := d.AcquireTextureFilled(4, 4, inf); got != c {
		t.Fatal("the +Inf acquire did not take the +Inf texture")
	}
	if got := d.AcquireTexture(4, 4); got != a {
		t.Fatal("the 0 acquire did not take the 0 texture")
	}
	d.ReleaseTextureFilled(b, negZero)
	requireFilled(t, d.AcquireTexture(4, 4), 0, "-0 texture acquired as 0")

	// A marked texture is handed out without a fill: a mark its texels
	// break comes back as it was released, and FreeMarks names it.
	a.Set(1, 1, 5)
	d.ReleaseTextureFilled(a, 0)
	if _, err := FreeMarks(d); err == nil {
		t.Fatal("FreeMarks passed a texture that breaks its mark")
	}
	if got := d.AcquireTexture(4, 4); got != a || got.At(1, 1) != 5 {
		t.Fatal("a marked texture was filled on acquire")
	}
	d.ReleaseTextureFilled(c, inf)
	if n, err := FreeMarks(d); n != 1 || err != nil {
		t.Fatalf("FreeMarks = %d, %v; want 1 marked texture holding its mark", n, err)
	}
}

func TestTexturePoolClassCap(t *testing.T) {
	d := New()
	var ts []*Texture
	for i := 0; i < poolClassCap+4; i++ {
		ts = append(ts, d.AcquireTexture(2, 2))
	}
	for _, tx := range ts {
		d.ReleaseTexture(tx)
	}
	d.texMu.Lock()
	free := len(d.texFree[4].free)
	d.texMu.Unlock()
	if free != poolClassCap {
		t.Fatalf("free list = %d, want capped at %d", free, poolClassCap)
	}
	if got := d.LiveTextures(); got != 0 {
		t.Fatalf("live textures = %d, want 0", got)
	}
}

// TestTexturePoolBytesBound: textures of 60 distinct sizes, released as
// the canvases of 60 ad-hoc rectangles release theirs, leave the pool
// within poolBytes, and a hot class released between the one-off ones
// keeps its two marked textures throughout.
func TestTexturePoolBytesBound(t *testing.T) {
	d := New()
	const side = 512 // 2 MiB a texture: 60 one-off classes would pool 240 MiB
	inf := math.Inf(1)
	var hot [2]*Texture
	for h := 1; h <= 60; h++ {
		sum, lo := d.AcquireTexture(side, side), d.AcquireTextureFilled(side, side, inf)
		if h > 1 && (sum != hot[0] || lo != hot[1]) {
			t.Fatalf("round %d: the hot class lost its pooled textures", h)
		}
		hot = [2]*Texture{sum, lo}
		d.ReleaseTextureFilled(sum, 0)
		d.ReleaseTextureFilled(lo, inf)

		a, b := d.AcquireTexture(side, side-h), d.AcquireTexture(side, side-h)
		d.ReleaseTextureFilled(a, 0)
		d.ReleaseTexture(b)
		if got := PooledBytes(d); got > poolBytes {
			t.Fatalf("after %d one-off sizes the pool holds %d bytes, bound %d", h, got, poolBytes)
		}
	}
	if _, err := FreeMarks(d); err != nil {
		t.Fatal(err)
	}
	requireFilled(t, d.AcquireTextureFilled(side, side, inf), inf, "hot MIN texture")
}

func TestCanvasReleaseIdempotent(t *testing.T) {
	d := New()
	world := geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	c, err := d.NewCanvas(world, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.LiveCanvases(); got != 1 {
		t.Fatalf("live canvases = %d, want 1", got)
	}
	c.Release()
	c.Release() // second release must not drive the gauge negative
	if got := d.LiveCanvases(); got != 0 {
		t.Fatalf("live canvases = %d, want 0", got)
	}
	var nilC *Canvas
	nilC.Release() // nil-safe
}

func TestTilesReleasesCanvases(t *testing.T) {
	d := New(WithMaxTextureSize(4))
	world := geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	full := raster.NewTransform(world, 10, 10)
	tiles := 0
	err := d.Tiles(full, func(c *Canvas, offX, offY int) error {
		tiles++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tiles != 9 {
		t.Fatalf("tiles = %d, want 9", tiles)
	}
	if got := d.LiveCanvases(); got != 0 {
		t.Fatalf("live canvases after Tiles = %d, want 0", got)
	}
}
