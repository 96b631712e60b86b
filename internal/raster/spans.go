// Region span compilation: the polygon side of a raster join is static
// across queries — the same layers are drawn at the same transforms every
// time the user drags a slider — so the scanline work (edge crossings,
// sorting, grid traversal) can be paid once and replayed as flat span
// lists. This is the software analogue of caching the polygon pass's
// fragment stream, and follows GeoBlocks' observation that precomputed
// polygon-side structures are the decisive lever for repeated aggregation
// over fixed region sets.
package raster

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/lru"
)

// Span is one covered scanline run: pixels [X0, X1) of row Y.
type Span struct {
	Y, X0, X1 int32
}

// Run is pixels [X0, X1) of one row in region K. Reach is the largest X1 of
// its row's runs up to and including this one, which bounds the backward
// scan for the runs covering a pixel.
type Run struct {
	X0, X1, Reach, K int32
}

// RowRuns indexes every region's runs by canvas row, each row's by
// ascending X0: one entry per run rather than one per pixel. Overlapping
// regions put several runs over one pixel.
type RowRuns struct {
	start []int32
	runs  []Run
}

// Row returns row y's runs.
func (rr RowRuns) Row(y int) []Run { return rr.runs[rr.start[y]:rr.start[y+1]] }

// RegionSpans is the compiled form of one region layer on one canvas
// transform: everything the raster join's polygon side needs, as flat
// arrays. Per region (CSR layout) it holds the fill spans, the deduplicated
// boundary pixels, the interior spans (the fill cut at the region's own
// boundary pixels) and its rings; per boundary position, one membership
// record (Member); across regions, the union of the boundary pixels as a
// 1-bit mask with dense slot numbers, each slot's positions in the boundary
// lists, and the fill and interior runs indexed by row.
//
// Replaying Fill(k) left-to-right visits exactly the pixels FillPolygonSpans
// covers for region k, in the same order, and Interior(k) the same pixels
// minus Boundary(k). Boundary(k) lists the pixels BoundaryPixels would
// visit, in first-visit order with duplicates removed. Everything is a pure
// function of the polygons and the transform, so one compile serves every
// query and both join modes.
type RegionSpans struct {
	// T is the transform the spans were compiled on.
	T Transform

	fillStart []int32
	fill      []Span

	boundStart []int32
	bound      []int32

	// mask marks every region's boundary pixels. Slots number them in
	// row-major order: the pixels of mask word i hold slots wordSlot[i] on.
	mask     *Bitmap
	wordSlot []int32
	// slots lists each slot's positions in the boundary lists.
	slots SlotIndex

	interiorStart []int32
	interior      []Span

	fillRows, interiorRows RowRuns

	// Region k's rings are verts[ringStart[r]:ringStart[r+1]] for r in
	// [regionRing[k], regionRing[k+1]), outer ring first, each behind a copy
	// of its last vertex. Position q's membership record is
	// member[memberStart[q]:memberStart[q+1]].
	verts       []geom.Point
	ringStart   []int32
	regionRing  []int32
	memberStart []int32
	member      []uint32

	scratch *sync.Pool
}

// Scratch is a pool for a joiner's working memory sized to this layer on
// this transform. It lives and dies with the compiled layer, so an evicted
// layer, or an ad-hoc polygon compiled for one request, takes its scratch
// with it; like any sync.Pool the collector may empty it at any time.
// Bytes does not count it, and the package never reads it.
func (rs *RegionSpans) Scratch() *sync.Pool { return rs.scratch }

// Regions returns the number of compiled regions.
func (rs *RegionSpans) Regions() int { return len(rs.fillStart) - 1 }

// Fill returns region k's covered scanline runs in row-major order.
func (rs *RegionSpans) Fill(k int) []Span {
	return rs.fill[rs.fillStart[k]:rs.fillStart[k+1]]
}

// Interior returns region k's fill spans cut at its own boundary pixels, in
// Fill's order: the fragments whose membership the pixel center decides
// exactly, because no edge of the region crosses their pixel.
func (rs *RegionSpans) Interior(k int) []Span {
	return rs.interior[rs.interiorStart[k]:rs.interiorStart[k+1]]
}

// FillRows returns every region's fill spans indexed by row: the runs an
// approximate join's pass 2 folds each hit pixel into. It is compiled with
// the layer and counted in Bytes.
func (rs *RegionSpans) FillRows() RowRuns { return rs.fillRows }

// InteriorRows returns every region's interior spans indexed by row: the
// runs an accurate join's pass 2 folds each hit pixel into.
func (rs *RegionSpans) InteriorRows() RowRuns { return rs.interiorRows }

// Boundary returns region k's deduplicated boundary pixel indices in
// first-visit order.
func (rs *RegionSpans) Boundary(k int) []int32 {
	return rs.bound[rs.boundStart[k]:rs.boundStart[k+1]]
}

// BoundaryOffset returns where region k's pixels start in the concatenation
// of every region's Boundary list (k = Regions() gives its length).
func (rs *RegionSpans) BoundaryOffset(k int) int32 { return rs.boundStart[k] }

// RegionOf returns the region whose Boundary list holds position q of the
// concatenation.
func (rs *RegionSpans) RegionOf(q int32) int {
	return sort.Search(rs.Regions(), func(k int) bool { return rs.boundStart[k+1] > q })
}

// Mask returns the union of every region's boundary pixels.
func (rs *RegionSpans) Mask() *Bitmap { return rs.mask }

// Slots returns the number of distinct boundary pixels.
func (rs *RegionSpans) Slots() int { return int(rs.wordSlot[len(rs.wordSlot)-1]) }

// WordSlots returns, per word of the mask's Words, the slot of the first
// boundary pixel at or after the word's first column, and the number of
// slots last: pixel bit b of word i holds slot WordSlots()[i] plus the
// number of set bits below b.
func (rs *RegionSpans) WordSlots() []int32 { return rs.wordSlot }

// SlotIndex lists, per slot, the positions at which the slot's pixel
// appears in the concatenation of every region's Boundary list.
type SlotIndex struct {
	start, pos []int32
}

// Positions returns slot s's positions, ascending; RegionOf maps them to
// regions.
func (si SlotIndex) Positions(s int32) []int32 { return si.pos[si.start[s]:si.start[s+1]] }

// SlotIndex returns the slot index compiled with the layer: series joins
// and flows read it on every canvas tile, so it is built once, in
// O(boundary pixels), and counted in Bytes.
func (rs *RegionSpans) SlotIndex() SlotIndex { return rs.slots }

// PixelSlot returns the slot of the boundary pixel with canvas index idx,
// an entry of a Boundary list.
func (rs *RegionSpans) PixelSlot(idx int32) int32 {
	return rs.Slot(int(idx)%rs.T.W, int(idx)/rs.T.W)
}

// Slot returns the slot of pixel (px, py), or -1 when no region's boundary
// crosses it.
func (rs *RegionSpans) Slot(px, py int) int32 {
	words, stride := rs.mask.Words()
	i := py*stride + px>>6
	bit := uint64(1) << uint(px&63)
	if words[i]&bit == 0 {
		return -1
	}
	return rs.wordSlot[i] + int32(bits.OnesCount64(words[i]&(bit-1)))
}

// spansOverhead is what Bytes adds to the arrays for the struct and the
// slice headers.
const spansOverhead = 512

// Bytes returns the retained size of the compiled layer — every array's
// capacity plus a fixed overhead — the unit the span cache's byte budget is
// accounted in.
func (rs *RegionSpans) Bytes() int64 {
	n := capBytes(rs.fillStart) + capBytes(rs.fill) +
		capBytes(rs.boundStart) + capBytes(rs.bound) +
		capBytes(rs.mask.words) + capBytes(rs.wordSlot) +
		capBytes(rs.slots.start) + capBytes(rs.slots.pos) +
		capBytes(rs.interiorStart) + capBytes(rs.interior) +
		capBytes(rs.fillRows.start) + capBytes(rs.fillRows.runs) +
		capBytes(rs.interiorRows.start) + capBytes(rs.interiorRows.runs) +
		capBytes(rs.verts) + capBytes(rs.ringStart) + capBytes(rs.regionRing) +
		capBytes(rs.memberStart) + capBytes(rs.member)
	return int64(n) + spansOverhead
}

func capBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// CompileRegions flattens every polygon's fill and conservative boundary
// rasterization on the transform, numbers the boundary pixels and indexes
// them by slot, cuts each fill at the region's own boundary, and compiles
// one membership record per boundary position. The context is checked between regions:
// compilation of a large layer aborts with ctx.Err() when the request is
// canceled, exactly like the draw passes it replaces.
func CompileRegions(ctx context.Context, t Transform, polys []geom.Polygon) (*RegionSpans, error) {
	rs := &RegionSpans{
		T:             t,
		fillStart:     make([]int32, 1, len(polys)+1),
		boundStart:    make([]int32, 1, len(polys)+1),
		interiorStart: make([]int32, 1, len(polys)+1),
		mask:          NewBitmap(t.W, t.H),
		ringStart:     []int32{0},
		regionRing:    make([]int32, 1, len(polys)+1),
		scratch:       new(sync.Pool),
	}
	own := NewBitmap(t.W, t.H)
	var touched []int32
	for k := range polys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		FillPolygonSpans(t, polys[k], func(py, x0, x1 int) {
			rs.fill = append(rs.fill, Span{Y: int32(py), X0: int32(x0), X1: int32(x1)})
		})
		rs.fillStart = append(rs.fillStart, int32(len(rs.fill)))

		touched = touched[:0]
		BoundaryPixels(t, polys[k], func(px, py int) {
			if own.Get(px, py) {
				return
			}
			own.Set(px, py)
			rs.mask.Set(px, py)
			touched = append(touched, int32(py*t.W+px))
		})
		rs.bound = append(rs.bound, touched...)
		rs.boundStart = append(rs.boundStart, int32(len(rs.bound)))

		for _, s := range rs.Fill(k) {
			y := int(s.Y)
			for x, end := int(s.X0), int(s.X1); x < end; {
				cut := own.NextSet(y, x, end)
				if cut > x {
					rs.interior = append(rs.interior, Span{Y: s.Y, X0: int32(x), X1: int32(cut)})
				}
				x = cut + 1
			}
		}
		rs.interiorStart = append(rs.interiorStart, int32(len(rs.interior)))
		for _, idx := range touched {
			own.Unset(int(idx)%t.W, int(idx)/t.W)
		}
	}
	// With every boundary list known, the records' arrays are sized once: a
	// record is about four words on the scene layers.
	rs.memberStart = append(make([]int32, 0, len(rs.bound)+1), 0)
	rs.member = make([]uint32, 0, 4*len(rs.bound))
	var mc memberCompiler
	for k := range polys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mc.region(rs, t, polys[k], rs.Boundary(k))
	}
	// The layer is cached for as long as it is used: give back what append
	// over-allocated.
	trim(&rs.fill)
	trim(&rs.bound)
	trim(&rs.interior)
	trim(&rs.verts)
	trim(&rs.ringStart)
	trim(&rs.member)
	rs.numberSlots()
	rs.fillRows = byRow(rs.fillStart, rs.fill, t.H)
	rs.interiorRows = byRow(rs.interiorStart, rs.interior, t.H)
	return rs, nil
}

// trim reallocates *s to exactly its length.
func trim[T any](s *[]T) {
	if cap(*s) > len(*s) {
		*s = append(make([]T, 0, len(*s)), *s...)
	}
}

// numberSlots numbers the mask's pixels row-major and indexes the boundary
// list entries by slot.
func (rs *RegionSpans) numberSlots() {
	words, _ := rs.mask.Words()
	rs.wordSlot = make([]int32, len(words)+1)
	for i, word := range words {
		rs.wordSlot[i+1] = rs.wordSlot[i] + int32(bits.OnesCount64(word))
	}
	slot := make([]int32, len(rs.bound))
	for q, idx := range rs.bound {
		slot[q] = rs.PixelSlot(idx)
	}

	nslots := rs.Slots()
	si := SlotIndex{start: make([]int32, nslots+1), pos: make([]int32, len(rs.bound))}
	for _, s := range slot {
		si.start[s+1]++
	}
	for s := 0; s < nslots; s++ {
		si.start[s+1] += si.start[s]
	}
	next := slices.Clone(si.start[:nslots])
	for q, s := range slot {
		si.pos[next[s]] = int32(q)
		next[s]++
	}
	rs.slots = si
}

// byRow indexes per-region spans by row: a stable bucket by row, then each
// row stably by X0, with Reach filled in.
func byRow(start []int32, spans []Span, h int) RowRuns {
	rr := RowRuns{start: make([]int32, h+1), runs: make([]Run, len(spans))}
	for _, s := range spans {
		rr.start[s.Y+1]++
	}
	for y := 0; y < h; y++ {
		rr.start[y+1] += rr.start[y]
	}
	next := slices.Clone(rr.start[:h])
	for k := 0; k+1 < len(start); k++ {
		for _, s := range spans[start[k]:start[k+1]] {
			rr.runs[next[s.Y]] = Run{X0: s.X0, X1: s.X1, K: int32(k)}
			next[s.Y]++
		}
	}
	for y := 0; y < h; y++ {
		row := rr.Row(y)
		slices.SortStableFunc(row, func(a, b Run) int { return cmp.Compare(a.X0, b.X0) })
		reach := int32(0)
		for i := range row {
			reach = max(reach, row[i].X1)
			row[i].Reach = reach
		}
	}
	return rr
}

// SpanKey identifies one compiled layer: the region set's process-unique
// stamp and the exact canvas transform (tiled renders key each tile's
// sub-transform separately).
type SpanKey struct {
	Owner uint64
	T     Transform
}

// SpanCache is a byte-bounded LRU over compiled region spans; safe for
// concurrent use. A nil *SpanCache is a valid disabled cache: Get always
// misses and Put is a no-op, so callers compile per request without nil
// checks. Entries never go stale — a key names a region set's
// process-unique stamp and an exact transform, and compiled spans are a
// pure function of the two — so the byte budget is the only thing that
// removes one.
type SpanCache struct {
	mu  sync.Mutex
	lru *lru.Cache[SpanKey, *RegionSpans]
}

// NewSpanCache returns a cache bounded to maxBytes of compiled spans.
// maxBytes <= 0 returns nil — the disabled cache.
func NewSpanCache(maxBytes int64) *SpanCache {
	if maxBytes <= 0 {
		return nil
	}
	return &SpanCache{lru: lru.New[SpanKey, *RegionSpans](maxBytes)}
}

// Enabled reports whether the cache stores anything.
func (c *SpanCache) Enabled() bool { return c != nil }

// Get returns the compiled spans for key, bumping its recency.
func (c *SpanCache) Get(key SpanKey) (*RegionSpans, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// Put stores compiled spans under key, evicting least-recently-used entries
// until the byte budget holds. Spans larger than the whole budget are not
// cached (the compile result still reaches its caller). Two requests that
// compile the same layer concurrently both Put; the results are identical,
// so which one stays does not matter.
func (c *SpanCache) Put(key SpanKey, spans *RegionSpans) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Add(key, spans, spans.Bytes())
}

// Stats returns a snapshot of the cache counters (zero when disabled).
func (c *SpanCache) Stats() lru.Stats {
	if c == nil {
		return lru.Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Stats()
}
