package raster

import (
	"context"
	"testing"

	"repro/internal/geom"
)

// spanTestPolys builds an awkward mix of shapes: a star (concave), a
// rectangle, a holed box, and a degenerate sliver.
func spanTestPolys() []geom.Polygon {
	star := geom.NewPolygon(geom.StarRing(geom.Point{X: 30, Y: 30}, 25, 10, 7))
	rect := geom.NewPolygon(geom.RectRing(geom.BBox{MinX: 55, MinY: 5, MaxX: 95, MaxY: 45}))
	holed := geom.Polygon{
		Outer: geom.RectRing(geom.BBox{MinX: 10, MinY: 60, MaxX: 90, MaxY: 95}),
		Holes: []geom.Ring{geom.RectRing(geom.BBox{MinX: 30, MinY: 70, MaxX: 70, MaxY: 85})},
	}
	sliver := geom.NewPolygon(geom.Ring{{X: 5, Y: 50}, {X: 95, Y: 50.4}, {X: 95, Y: 50.6}})
	return []geom.Polygon{star, rect, holed, sliver}
}

// TestCompileRegionsMatchesDirect: replaying compiled fill spans and
// boundary lists must reproduce FillPolygon and deduplicated
// BoundaryPixels exactly — same pixels, same order.
func TestCompileRegionsMatchesDirect(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 64, 64)
	polys := spanTestPolys()
	rs, err := CompileRegions(context.Background(), tr, polys)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Regions() != len(polys) {
		t.Fatalf("Regions() = %d, want %d", rs.Regions(), len(polys))
	}
	for k, pg := range polys {
		var want []int32
		FillPolygon(tr, pg, func(px, py int) {
			want = append(want, int32(py*tr.W+px))
		})
		var got []int32
		for _, s := range rs.Fill(k) {
			for px := s.X0; px < s.X1; px++ {
				got = append(got, s.Y*int32(tr.W)+px)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("region %d: %d fill pixels, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("region %d: fill pixel %d = %d, want %d (order must match)",
					k, i, got[i], want[i])
			}
		}

		seen := NewBitmap(tr.W, tr.H)
		var wantBound []int32
		BoundaryPixels(tr, pg, func(px, py int) {
			if seen.Get(px, py) {
				return
			}
			seen.Set(px, py)
			wantBound = append(wantBound, int32(py*tr.W+px))
		})
		gotBound := rs.Boundary(k)
		if len(gotBound) != len(wantBound) {
			t.Fatalf("region %d: %d boundary pixels, want %d", k, len(gotBound), len(wantBound))
		}
		for i := range wantBound {
			if gotBound[i] != wantBound[i] {
				t.Fatalf("region %d: boundary pixel %d = %d, want %d (first-visit order must match)",
					k, i, gotBound[i], wantBound[i])
			}
		}
	}
	if rs.Bytes() <= 0 {
		t.Fatal("Bytes() must be positive for a non-empty compile")
	}
}

// TestCompileRegionsCancel: an already-canceled context aborts compilation.
func TestCompileRegionsCancel(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 32, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileRegions(ctx, tr, spanTestPolys()); err != context.Canceled {
		t.Fatalf("CompileRegions under canceled ctx = %v, want context.Canceled", err)
	}
}

// compileOne is a test helper compiling a single rectangle layer.
func compileOne(t *testing.T, trW int, box geom.BBox) *RegionSpans {
	t.Helper()
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, trW, trW)
	rs, err := CompileRegions(context.Background(), tr, []geom.Polygon{geom.NewPolygon(geom.RectRing(box))})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestSpanCacheLRUBudget: the cache evicts least-recently-used entries to
// honor its byte bound, and refuses entries larger than the whole budget.
func TestSpanCacheLRUBudget(t *testing.T) {
	sp := compileOne(t, 64, geom.BBox{MinX: 10, MinY: 10, MaxX: 90, MaxY: 90})
	c := NewSpanCache(3*sp.Bytes() + 10)
	keys := make([]SpanKey, 5)
	for i := range keys {
		keys[i] = SpanKey{Owner: uint64(i + 1), T: sp.T}
		c.Put(keys[i], sp)
	}
	st := c.Stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("cache holds %d bytes, budget %d", st.Bytes, st.Capacity)
	}
	if st.Entries != 3 || st.Evictions != 2 {
		t.Fatalf("entries=%d evictions=%d, want 3 and 2", st.Entries, st.Evictions)
	}
	// Oldest two are gone, newest three resident.
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(keys[i]); ok {
			t.Fatalf("key %d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := c.Get(keys[i]); !ok {
			t.Fatalf("key %d should be resident", i)
		}
	}
	// Recency: touch keys[2], insert a new entry; keys[3] is now LRU.
	c.Get(keys[2])
	c.Get(keys[4])
	c.Put(SpanKey{Owner: 99, T: sp.T}, sp)
	if _, ok := c.Get(keys[3]); ok {
		t.Fatal("LRU entry survived an over-budget insert")
	}
	if _, ok := c.Get(keys[2]); !ok {
		t.Fatal("recently-used entry was evicted")
	}

	// An entry bigger than the whole budget is not cached.
	tiny := NewSpanCache(sp.Bytes() - 1)
	tiny.Put(SpanKey{Owner: 1, T: sp.T}, sp)
	if got := tiny.Stats().Entries; got != 0 {
		t.Fatalf("oversized entry was cached (%d entries)", got)
	}
}

// TestSpanCacheNilSafe: a nil *SpanCache is the disabled cache — every
// method is a safe no-op.
func TestSpanCacheNilSafe(t *testing.T) {
	var c *SpanCache
	if c.Enabled() {
		t.Fatal("nil cache reports enabled")
	}
	if NewSpanCache(0) != nil || NewSpanCache(-5) != nil {
		t.Fatal("non-positive budget must return the nil (disabled) cache")
	}
	sp := compileOne(t, 16, geom.BBox{MinX: 10, MinY: 10, MaxX: 90, MaxY: 90})
	c.Put(SpanKey{Owner: 1, T: sp.T}, sp)
	if _, ok := c.Get(SpanKey{Owner: 1, T: sp.T}); ok {
		t.Fatal("nil cache returned a hit")
	}
	if st := c.Stats(); st.Entries != 0 || st.Capacity != 0 {
		t.Fatalf("nil cache stats = %+v", st)
	}
}
