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
// boundary pixels) and the ring edges touching each canvas row; across
// regions, the union of the boundary pixels as a 1-bit mask with dense slot
// numbers, each slot's positions in the boundary lists, and the fill and
// interior runs indexed by row.
//
// Replaying Fill(k) left-to-right visits exactly the pixels FillPolygon
// visits for region k, in the same order, and Interior(k) the same pixels
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
	// boundSlot[q] is the slot of boundary pixel bound[q].
	boundSlot []int32

	// mask marks every region's boundary pixels. Slots number them in
	// row-major order: row y holds slots [rowSlot[y], rowSlot[y+1]).
	mask    *Bitmap
	rowSlot []int32
	// slots lists each slot's positions in the boundary lists.
	slots SlotIndex

	interiorStart []int32
	interior      []Span

	fillRows, interiorRows RowRuns

	// Region k's rings are verts[ringStart[r]:ringStart[r+1]] for r in
	// [regionRing[k], regionRing[k+1]), outer ring first. Its edges are
	// listed per canvas row: for row bandRow0[k]+i, the edges ending at the
	// vertices bandEdge[off[i]:off[i+1]], with off =
	// bandOff[bandStart[k]:bandStart[k+1]].
	verts      []geom.Point
	ringStart  []int32
	regionRing []int32
	bandRow0   []int32
	bandStart  []int32
	bandOff    []int32
	bandEdge   []int32

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

// BoundarySlots returns the slots of Boundary(k)'s pixels, position for
// position.
func (rs *RegionSpans) BoundarySlots(k int) []int32 {
	return rs.boundSlot[rs.boundStart[k]:rs.boundStart[k+1]]
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
func (rs *RegionSpans) Slots() int { return int(rs.rowSlot[len(rs.rowSlot)-1]) }

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

// Slot returns the slot of pixel (px, py), or -1 when no region's boundary
// crosses it.
func (rs *RegionSpans) Slot(px, py int) int32 {
	if !rs.mask.Get(px, py) {
		return -1
	}
	row, s := rs.mask.Row(py), rs.rowSlot[py]
	for _, w := range row[:px>>6] {
		s += int32(bits.OnesCount64(w))
	}
	return s + int32(bits.OnesCount64(row[px>>6]&(1<<uint(px&63)-1)))
}

// SlotRow ranks row y's boundary pixels for repeated lookups, reusing the
// storage of a SlotRow it returned before.
func (rs *RegionSpans) SlotRow(y int, reuse SlotRow) SlotRow {
	words := rs.mask.Row(y)
	first := reuse.first[:0]
	s := rs.rowSlot[y]
	for _, w := range words {
		first = append(first, s)
		s += int32(bits.OnesCount64(w))
	}
	return SlotRow{words: words, first: first}
}

// SlotRow is one row of the boundary mask with, per word, the slot of the
// first boundary pixel at or right of the word's first column.
type SlotRow struct {
	words []uint64
	first []int32
}

// Slot returns the slot of boundary pixel px of the row.
func (r SlotRow) Slot(px int) int32 {
	return r.first[px>>6] + int32(bits.OnesCount64(r.words[px>>6]&(1<<uint(px&63)-1)))
}

// RowEdges returns region k's edges that touch canvas row y.
func (rs *RegionSpans) RowEdges(k, y int) RowEdges {
	off := rs.bandOff[rs.bandStart[k]:rs.bandStart[k+1]]
	i := y - int(rs.bandRow0[k])
	if i < 0 || i+1 >= len(off) {
		return RowEdges{}
	}
	return RowEdges{verts: rs.verts, rings: rs.ringStart[rs.regionRing[k] : rs.regionRing[k+1]+1],
		idx: rs.bandEdge[off[i]:off[i+1]]}
}

// spansOverhead is what Bytes adds to the arrays for the struct and the
// slice headers.
const spansOverhead = 512

// Bytes returns the retained size of the compiled layer — every array's
// capacity plus a fixed overhead — the unit the span cache's byte budget is
// accounted in.
func (rs *RegionSpans) Bytes() int64 {
	n := capBytes(rs.fillStart) + capBytes(rs.fill) +
		capBytes(rs.boundStart) + capBytes(rs.bound) + capBytes(rs.boundSlot) +
		capBytes(rs.mask.words) + capBytes(rs.rowSlot) +
		capBytes(rs.slots.start) + capBytes(rs.slots.pos) +
		capBytes(rs.interiorStart) + capBytes(rs.interior) +
		capBytes(rs.fillRows.start) + capBytes(rs.fillRows.runs) +
		capBytes(rs.interiorRows.start) + capBytes(rs.interiorRows.runs) +
		capBytes(rs.verts) + capBytes(rs.ringStart) + capBytes(rs.regionRing) +
		capBytes(rs.bandRow0) + capBytes(rs.bandStart) +
		capBytes(rs.bandOff) + capBytes(rs.bandEdge)
	return int64(n) + spansOverhead
}

func capBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// CompileRegions flattens every polygon's fill and conservative boundary
// rasterization on the transform, numbers the boundary pixels and indexes
// them by slot, cuts each fill at the region's own boundary, and tables
// each region's edges by row. The context is checked between regions:
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
		bandRow0:      make([]int32, 0, len(polys)),
		bandStart:     make([]int32, 1, len(polys)+1),
		scratch:       new(sync.Pool),
	}
	own := NewBitmap(t.W, t.H)
	var touched, cursor []int32
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

		cursor = rs.tableEdges(t, polys[k], cursor)
	}
	// The layer is cached for as long as it is used: give back what append
	// over-allocated.
	trim(&rs.fill)
	trim(&rs.bound)
	trim(&rs.interior)
	trim(&rs.verts)
	trim(&rs.ringStart)
	trim(&rs.bandOff)
	trim(&rs.bandEdge)
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

// numberSlots numbers the mask's pixels row-major, records each boundary
// list entry's slot and indexes the entries by slot.
func (rs *RegionSpans) numberSlots() {
	h, w := rs.T.H, rs.T.W
	rs.rowSlot = make([]int32, h+1)
	for y := 0; y < h; y++ {
		n := int32(0)
		for _, word := range rs.mask.Row(y) {
			n += int32(bits.OnesCount64(word))
		}
		rs.rowSlot[y+1] = rs.rowSlot[y] + n
	}
	rs.boundSlot = make([]int32, len(rs.bound))
	row, sr := -1, SlotRow{}
	for q, idx := range rs.bound {
		if y := int(idx) / w; y != row {
			row, sr = y, rs.SlotRow(y, sr)
		}
		rs.boundSlot[q] = sr.Slot(int(idx) % w)
	}

	nslots := rs.Slots()
	si := SlotIndex{start: make([]int32, nslots+1), pos: make([]int32, len(rs.bound))}
	for _, s := range rs.boundSlot {
		si.start[s+1]++
	}
	for s := 0; s < nslots; s++ {
		si.start[s+1] += si.start[s]
	}
	next := slices.Clone(si.start[:nslots])
	for q, s := range rs.boundSlot {
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
