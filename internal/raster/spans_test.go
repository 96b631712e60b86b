package raster

import (
	"context"
	"reflect"
	"slices"
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
// BoundaryPixels exactly — same pixels, same order — and the interior,
// slots and row index must agree with them.
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
			px, py := int(gotBound[i])%tr.W, int(gotBound[i])/tr.W
			if s := rs.Slot(px, py); s != rs.BoundarySlots(k)[i] {
				t.Fatalf("region %d: pixel %d has slot %d, BoundarySlots says %d", k, gotBound[i], s, rs.BoundarySlots(k)[i])
			}
		}

		// The interior is the fill minus the region's own boundary pixels,
		// in fill order, and the row index holds the same runs.
		var wantInterior, gotInterior []int32
		for _, idx := range want {
			if !seen.Get(int(idx)%tr.W, int(idx)/tr.W) {
				wantInterior = append(wantInterior, idx)
			}
		}
		for _, s := range rs.Interior(k) {
			for px := s.X0; px < s.X1; px++ {
				gotInterior = append(gotInterior, s.Y*int32(tr.W)+px)
			}
		}
		if !slices.Equal(gotInterior, wantInterior) {
			t.Fatalf("region %d: interior %v, want %v", k, gotInterior, wantInterior)
		}
		var byRow []int32
		for y := 0; y < tr.H; y++ {
			for _, r := range rs.InteriorRows().Row(y) {
				for px := r.X0; r.K == int32(k) && px < r.X1; px++ {
					byRow = append(byRow, int32(y*tr.W)+px)
				}
			}
		}
		if !slices.Equal(byRow, wantInterior) {
			t.Fatalf("region %d: row-indexed interior differs from Interior", k)
		}
	}

	// Slots number the union of the boundary pixels densely in row-major
	// order, and every other pixel has none.
	next := int32(0)
	for py := 0; py < tr.H; py++ {
		for px := 0; px < tr.W; px++ {
			s := rs.Slot(px, py)
			if s < 0 {
				continue
			}
			if s != next {
				t.Fatalf("pixel (%d,%d) has slot %d, want %d", px, py, s, next)
			}
			next++
		}
	}
	if int(next) != rs.Slots() {
		t.Fatalf("%d slotted pixels, Slots() = %d", next, rs.Slots())
	}
	if rs.Bytes() <= 0 {
		t.Fatal("Bytes() must be positive for a non-empty compile")
	}
}

// TestRegionSpansBytesCountsEveryArray: Bytes is the capacity of every
// array a compiled layer holds plus spansOverhead, so a field added without
// its bytes in the span cache's budget fails here. The layer exercises
// every array: each must be non-empty.
func TestRegionSpansBytesCountsEveryArray(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 64, 64)
	rs, err := CompileRegions(context.Background(), tr, spanTestPolys())
	if err != nil {
		t.Fatal(err)
	}
	var walk func(v reflect.Value, path string) int
	walk = func(v reflect.Value, path string) int {
		switch v.Kind() {
		case reflect.Pointer:
			return walk(v.Elem(), path)
		case reflect.Struct:
			n := 0
			for i := 0; i < v.NumField(); i++ {
				n += walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return n
		case reflect.Slice:
			switch v.Type().Elem().Kind() {
			case reflect.Slice, reflect.Pointer, reflect.Map, reflect.String:
				t.Fatalf("%s: elements own memory of their own; extend this walk and Bytes", path)
			}
			if v.Cap() == 0 {
				t.Fatalf("%s is empty; the test layer must exercise every array", path)
			}
			return v.Cap() * int(v.Type().Elem().Size())
		case reflect.Map, reflect.String:
			t.Fatalf("%s: unsupported field kind %v", path, v.Kind())
		}
		return 0
	}
	if got, want := rs.Bytes(), int64(walk(reflect.ValueOf(rs), "RegionSpans"))+spansOverhead; got != want {
		t.Fatalf("Bytes() = %d, want %d: an array is missing from (or counted twice in) Bytes", got, want)
	}
}

// TestRegionSpansBytesCountsSlotIndex: compiling the slot index with the
// layer grows Bytes by exactly the index's capacity, which is exactly its
// length: one start per slot plus one, one position per boundary entry.
func TestRegionSpansBytesCountsSlotIndex(t *testing.T) {
	tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 64, 64)
	rs, err := CompileRegions(context.Background(), tr, spanTestPolys())
	if err != nil {
		t.Fatal(err)
	}
	si := rs.SlotIndex()
	if cap(si.start) != rs.Slots()+1 || cap(si.pos) != len(rs.bound) {
		t.Fatalf("slot index capacity %d/%d, want %d/%d",
			cap(si.start), cap(si.pos), rs.Slots()+1, len(rs.bound))
	}
	without := *rs
	without.slots = SlotIndex{}
	want := int64(capBytes(si.start) + capBytes(si.pos))
	if got := rs.Bytes() - without.Bytes(); got != want || want == 0 {
		t.Fatalf("the slot index adds %d bytes, want its capacity %d", got, want)
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
