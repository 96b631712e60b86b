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
	"context"
	"sync"

	"repro/internal/geom"
	"repro/internal/lru"
)

// Span is one covered scanline run: pixels [X0, X1) of row Y.
type Span struct {
	Y, X0, X1 int32
}

// RegionSpans is the compiled scanline form of one region layer on one
// canvas transform: per-region fill spans and per-region deduplicated
// boundary pixel lists, both in CSR layout. Replaying Fill(k) left-to-right
// visits exactly the pixels FillPolygon visits for region k, in the same
// order; Boundary(k) lists the pixels BoundaryPixels would visit, in
// first-visit order with duplicates removed (the form every consumer
// reduces the conservative trace to anyway).
type RegionSpans struct {
	// T is the transform the spans were compiled on.
	T Transform

	fillStart  []int32
	fill       []Span
	boundStart []int32
	bound      []int32
}

// Regions returns the number of compiled regions.
func (rs *RegionSpans) Regions() int { return len(rs.fillStart) - 1 }

// Fill returns region k's covered scanline runs in row-major order.
func (rs *RegionSpans) Fill(k int) []Span {
	return rs.fill[rs.fillStart[k]:rs.fillStart[k+1]]
}

// Boundary returns region k's deduplicated boundary pixel indices in
// first-visit order.
func (rs *RegionSpans) Boundary(k int) []int32 {
	return rs.bound[rs.boundStart[k]:rs.boundStart[k+1]]
}

// Bytes returns the retained size of the compiled spans — the unit the
// span cache's byte budget is accounted in.
func (rs *RegionSpans) Bytes() int64 {
	const spanBytes, idxBytes = 12, 4
	return int64(len(rs.fill))*spanBytes +
		int64(len(rs.bound))*idxBytes +
		int64(len(rs.fillStart)+len(rs.boundStart))*idxBytes +
		64 // struct and header overhead
}

// CompileRegions flattens every polygon's fill and conservative boundary
// rasterization on the transform into span lists. The context is checked
// between regions: compilation of a large layer aborts with ctx.Err() when
// the request is canceled, exactly like the draw passes it replaces.
func CompileRegions(ctx context.Context, t Transform, polys []geom.Polygon) (*RegionSpans, error) {
	rs := &RegionSpans{
		T:          t,
		fillStart:  make([]int32, 1, len(polys)+1),
		boundStart: make([]int32, 1, len(polys)+1),
	}
	scratch := NewBitmap(t.W, t.H)
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
			if scratch.Get(px, py) {
				return
			}
			scratch.Set(px, py)
			touched = append(touched, int32(py*t.W+px))
		})
		rs.bound = append(rs.bound, touched...)
		for _, idx := range touched {
			scratch.Unset(int(idx)%t.W, int(idx)/t.W)
		}
		rs.boundStart = append(rs.boundStart, int32(len(rs.bound)))
	}
	return rs, nil
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
// misses and Put is a no-op, so callers fall back to direct rasterization
// without nil checks. Entries never go stale — a key names a region set's
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
