package data

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/geom"
)

// Region is one polygonal aggregation unit R(id, geometry).
type Region struct {
	ID   int
	Name string
	Poly geom.Polygon
}

// RegionSet is a named collection of regions — a neighborhood layer, a
// census-tract layer, or an ad-hoc user-drawn selection.
type RegionSet struct {
	Name    string
	Regions []Region

	stamp  atomic.Uint64
	bounds atomic.Pointer[geom.BBox]
}

// regionSetStamps issues process-unique RegionSet identities; 0 is reserved
// for "not yet stamped".
var regionSetStamps atomic.Uint64

// Stamp returns a process-unique identity for this region set, assigned
// lazily on first call. Caches keyed by geometry use it instead of the Name
// (names can be reused across re-registered layers) — callers must treat
// the Regions slice as immutable once the set is stamped; Bounds memoises
// its fold on that promise.
func (rs *RegionSet) Stamp() uint64 {
	if s := rs.stamp.Load(); s != 0 {
		return s
	}
	s := regionSetStamps.Add(1)
	if rs.stamp.CompareAndSwap(0, s) {
		return s
	}
	return rs.stamp.Load()
}

// Len returns the number of regions.
func (rs *RegionSet) Len() int { return len(rs.Regions) }

// Bounds returns the union of all region bounding boxes. A stamped set's
// regions are immutable, so its first call walks every vertex and every
// later call returns that box; an unstamped set walks them afresh on every
// call, following in-place edits such as ReadGeoJSONAuto's projection.
func (rs *RegionSet) Bounds() geom.BBox {
	if rs.stamp.Load() == 0 {
		return rs.foldBounds()
	}
	if b := rs.bounds.Load(); b != nil {
		return *b
	}
	b := rs.foldBounds()
	rs.bounds.CompareAndSwap(nil, &b)
	return b
}

func (rs *RegionSet) foldBounds() geom.BBox {
	b := geom.EmptyBBox()
	for _, r := range rs.Regions {
		b = b.Union(r.Poly.BBox())
	}
	return b
}

// VertexCount returns the total vertex count across all regions — the
// polygon-complexity axis of the paper's evaluation.
func (rs *RegionSet) VertexCount() int {
	n := 0
	for _, r := range rs.Regions {
		n += r.Poly.VertexCount()
	}
	return n
}

// VoronoiOptions tunes the synthetic neighborhood generator.
type VoronoiOptions struct {
	// JitterFrac displaces densified boundary vertices by up to this
	// fraction of the mean cell radius, turning straight Voronoi edges into
	// the irregular boundaries real neighborhoods have. 0 keeps the exact
	// Voronoi partition (useful for conservation tests).
	JitterFrac float64
	// DensifyStep subdivides edges so no segment exceeds this many meters
	// before jittering. <= 0 picks a default from the cell size.
	DensifyStep float64
}

// VoronoiRegions partitions bounds into n irregular polygonal cells — the
// stand-in for NYC's neighborhood layer. With zero options the cells form an
// exact partition of bounds (no gaps or overlaps); jittering trades that for
// realistic wiggly boundaries.
//
// Construction is the classic half-plane intersection: each site's cell is
// the bounds rectangle clipped against the perpendicular bisector of every
// nearby site. The other sites are visited nearest-first, popped from a
// heap ordered by (distance, index) that is built in O(n) per site, and a
// security-radius cutoff stops the walk after the few dozen sites that can
// still cut the cell, where sorting all n sites per cell cost O(n log n).
func VoronoiRegions(name string, bounds geom.BBox, n int, seed int64, opts VoronoiOptions) *RegionSet {
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
	near := &siteHeap{d: make([]float64, n), idx: make([]int32, 0, n)}
	rect := geom.RectRing(bounds)
	for i, si := range sites {
		near.reset(sites, i)
		cell := rect.Clone()
		for len(near.idx) > 0 {
			j := near.pop()
			sj := sites[j]
			// Security radius: once the cell lies entirely closer to si
			// than half the distance to sj, no farther site can cut it.
			maxR2 := 0.0
			for _, v := range cell {
				if d := v.DistSq(si); d > maxR2 {
					maxR2 = d
				}
			}
			if near.d[j] > 4*maxR2 {
				break
			}
			mid := si.Lerp(sj, 0.5)
			nrm := sj.Sub(si)
			cell = geom.ClipRingToHalfPlane(cell, mid, nrm)
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

// siteHeap is a binary min-heap of site indices ordered by (squared
// distance to the current site, index): the nearest-first walk of
// VoronoiRegions. d holds every site's distance; idx is the heap.
type siteHeap struct {
	d   []float64
	idx []int32
}

// reset computes every site's squared distance to sites[i] and heapifies
// all sites but i.
func (h *siteHeap) reset(sites []geom.Point, i int) {
	h.idx = h.idx[:0]
	for j, s := range sites {
		h.d[j] = s.DistSq(sites[i])
		if j != i {
			h.idx = append(h.idx, int32(j))
		}
	}
	for k := len(h.idx)/2 - 1; k >= 0; k-- {
		h.down(k)
	}
}

// pop removes and returns the nearest remaining site.
func (h *siteHeap) pop() int {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	h.down(0)
	return int(top)
}

func (h *siteHeap) less(a, b int32) bool {
	return h.d[a] < h.d[b] || (h.d[a] == h.d[b] && a < b)
}

// down sifts the entry at position k toward the leaves.
func (h *siteHeap) down(k int) {
	n := len(h.idx)
	for {
		c := 2*k + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(h.idx[c+1], h.idx[c]) {
			c++
		}
		if !h.less(h.idx[c], h.idx[k]) {
			return
		}
		h.idx[k], h.idx[c] = h.idx[c], h.idx[k]
		k = c
	}
}

// jitterRing densifies the ring and displaces the inserted vertices
// perpendicular to their edge, clamped to bounds.
func jitterRing(r geom.Ring, rng *rand.Rand, opts VoronoiOptions, bounds geom.BBox) geom.Ring {
	meanRadius := math.Sqrt(r.Area() / math.Pi)
	step := opts.DensifyStep
	if step <= 0 {
		step = meanRadius / 4
	}
	amp := opts.JitterFrac * meanRadius
	out := make(geom.Ring, 0, 2*len(r))
	for i, a := range r {
		b := r[(i+1)%len(r)]
		out = append(out, a)
		length := a.Dist(b)
		segs := int(length / step)
		if segs < 1 {
			continue
		}
		dir := b.Sub(a).Scale(1 / length)
		perp := geom.Point{X: -dir.Y, Y: dir.X}
		for k := 1; k <= segs; k++ {
			t := float64(k) / float64(segs+1)
			p := a.Lerp(b, t).Add(perp.Scale((rng.Float64()*2 - 1) * amp))
			// Clamp into bounds so regions stay within the study area.
			p.X = math.Max(bounds.MinX, math.Min(bounds.MaxX, p.X))
			p.Y = math.Max(bounds.MinY, math.Min(bounds.MaxY, p.Y))
			out = append(out, p)
		}
	}
	// Jitter may produce self-intersections on sliver cells; simplify
	// slightly to knock out the worst degeneracies while keeping shape.
	if len(out) > 8 {
		out = geom.SimplifyRing(out, amp/10)
	}
	return out
}

// GridRegions partitions bounds into an nx×ny rectangular grid — the
// stand-in for census-tract-like fine resolutions and Urbane's grid view.
func GridRegions(name string, bounds geom.BBox, nx, ny int) *RegionSet {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	rs := &RegionSet{Name: name, Regions: make([]Region, 0, nx*ny)}
	w := bounds.Width() / float64(nx)
	h := bounds.Height() / float64(ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			cell := geom.BBox{
				MinX: bounds.MinX + float64(x)*w,
				MinY: bounds.MinY + float64(y)*h,
				MaxX: bounds.MinX + float64(x+1)*w,
				MaxY: bounds.MinY + float64(y+1)*h,
			}
			rs.Regions = append(rs.Regions, Region{
				ID:   y*nx + x,
				Name: fmt.Sprintf("%s-%d-%d", name, x, y),
				Poly: geom.NewPolygon(geom.RectRing(cell)),
			})
		}
	}
	return rs
}

// SimplifyRegions returns a level-of-detail copy of the layer with every
// ring Douglas–Peucker-simplified to the tolerance (world meters). Urbane
// swaps in coarser polygon LODs at low zooms: the join gets cheaper (fewer
// edges to trace conservatively, fewer exact tests) at a bounded geometric
// error — vertices move at most tol from the original boundary. Regions
// whose simplification would degenerate keep their original ring.
func SimplifyRegions(rs *RegionSet, tol float64) *RegionSet {
	out := &RegionSet{
		Name:    fmt.Sprintf("%s-lod%g", rs.Name, tol),
		Regions: make([]Region, len(rs.Regions)),
	}
	for i, reg := range rs.Regions {
		pg := geom.Polygon{Outer: geom.SimplifyRing(reg.Poly.Outer, tol)}
		for _, h := range reg.Poly.Holes {
			sh := geom.SimplifyRing(h, tol)
			if sh.Area() > 0 {
				pg.Holes = append(pg.Holes, sh)
			}
		}
		if pg.Outer.Area() == 0 {
			pg = reg.Poly.Clone()
		}
		pg.Normalize()
		out.Regions[i] = Region{ID: reg.ID, Name: reg.Name, Poly: pg}
	}
	return out
}

// UserPolygon builds the ad-hoc, strongly non-convex region a demo visitor
// draws on the map: a jittered star centered at c. Pre-aggregation schemes
// cannot serve such a polygon; Raster Join evaluates it on the fly.
func UserPolygon(c geom.Point, radius float64, seed int64) geom.Polygon {
	rng := rand.New(rand.NewSource(seed))
	base := geom.StarRing(c, radius, radius*0.45, 7)
	out := make(geom.Ring, len(base))
	for i, p := range base {
		out[i] = geom.Point{
			X: p.X + (rng.Float64()*2-1)*radius*0.06,
			Y: p.Y + (rng.Float64()*2-1)*radius*0.06,
		}
	}
	return geom.NewPolygon(out)
}
