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
// nearby site. The other sites are visited nearest-first in (distance,
// index) order by a siteWalk, which heapifies only the grid rings around
// the site it needs, and a security-radius cutoff stops the walk after the
// few dozen sites that can still cut the cell, where sorting all n sites
// per cell cost O(n log n).
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
	near := newSiteWalk(sites, bounds)
	rect := geom.RectRing(bounds)
	for i, si := range sites {
		near.reset(i)
		cell := rect.Clone()
		for {
			j, ok := near.next()
			if !ok {
				break
			}
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

// siteWalk visits the sites other than one chosen site nearest-first, in
// (squared distance, index) order: the walk of VoronoiRegions. The sites
// are bucketed in a uniform grid of about two sites a cell, and a walk
// heapifies the square rings of cells around its site one at a time,
// adding the next ring only while a site not yet on the heap could still
// precede the heap's nearest. A walk the security radius stops after a few
// dozen sites so touches a few rings; one that runs on reaches every ring
// and so every site.
type siteWalk struct {
	sites  []geom.Point
	bounds geom.BBox
	nx, ny int
	cw, ch float64 // cell size
	step   float64 // min(cw, ch): the distance each ring adds
	// cells[cy*nx+cx] lists the sites in cell (cx, cy) in index order.
	cells [][]int32

	// The current walk: around site i in cell (cx, cy), rings 0..ring are
	// on the heap; d holds the squared distance of every site put there.
	i, cx, cy, ring int
	d               []float64
	heap            []int32
}

func newSiteWalk(sites []geom.Point, bounds geom.BBox) *siteWalk {
	n := len(sites)
	w := &siteWalk{sites: sites, bounds: bounds, nx: 1, ny: 1, d: make([]float64, n)}
	if bw, bh := bounds.Width(), bounds.Height(); bw > 0 && bh > 0 {
		cells := float64(n) / 2
		w.nx = max(1, int(math.Round(math.Sqrt(cells*bw/bh))))
		w.ny = max(1, int(math.Round(math.Sqrt(cells*bh/bw))))
		w.cw, w.ch = bw/float64(w.nx), bh/float64(w.ny)
		w.step = math.Min(w.cw, w.ch)
	}
	w.cells = make([][]int32, w.nx*w.ny)
	for j, s := range sites {
		cx, cy := w.cellOf(s)
		c := cy*w.nx + cx
		w.cells[c] = append(w.cells[c], int32(j))
	}
	return w
}

// cellOf returns the grid cell of p, clamped into the grid.
func (w *siteWalk) cellOf(p geom.Point) (cx, cy int) {
	if w.step > 0 {
		cx = min(max(int((p.X-w.bounds.MinX)/w.cw), 0), w.nx-1)
		cy = min(max(int((p.Y-w.bounds.MinY)/w.ch), 0), w.ny-1)
	}
	return cx, cy
}

// reset starts a walk around sites[i] with its own cell on the heap.
func (w *siteWalk) reset(i int) {
	w.i, w.heap, w.ring = i, w.heap[:0], 0
	w.cx, w.cy = w.cellOf(w.sites[i])
	w.addCell(w.cx, w.cy)
}

// next removes and returns the nearest site not yet returned, or false
// when the walk has returned every other site.
func (w *siteWalk) next() (int, bool) {
	last := max(w.nx, w.ny) - 1
	for w.ring < last && (len(w.heap) == 0 || w.d[w.heap[0]] >= w.bound()) {
		w.ring++
		w.addRing(w.ring)
	}
	if len(w.heap) == 0 {
		return 0, false
	}
	top := w.heap[0]
	end := len(w.heap) - 1
	w.heap[0] = w.heap[end]
	w.heap = w.heap[:end]
	w.down(0)
	return int(top), true
}

// bound is a lower bound on the squared distance of every site not yet on
// the heap. Those lie in rings past w.ring, so they are more than
// w.ring·step away; the bound gives up one ring of that, which absorbs any
// rounding in the bucketing.
func (w *siteWalk) bound() float64 {
	r := float64(w.ring-1) * w.step
	if r <= 0 {
		return 0
	}
	return r * r
}

// addRing puts the sites of the cells at Chebyshev distance r from the
// walk's cell on the heap.
func (w *siteWalk) addRing(r int) {
	for y := max(w.cy-r, 0); y <= min(w.cy+r, w.ny-1); y++ {
		for x := max(w.cx-r, 0); x <= min(w.cx+r, w.nx-1); x++ {
			if max(abs(x-w.cx), abs(y-w.cy)) == r {
				w.addCell(x, y)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// addCell puts the sites of cell (x, y) but the walk's own on the heap.
func (w *siteWalk) addCell(x, y int) {
	si := w.sites[w.i]
	for _, j := range w.cells[y*w.nx+x] {
		if int(j) == w.i {
			continue
		}
		w.d[j] = w.sites[j].DistSq(si)
		w.heap = append(w.heap, j)
		w.up(len(w.heap) - 1)
	}
}

func (w *siteWalk) less(a, b int32) bool {
	return w.d[a] < w.d[b] || (w.d[a] == w.d[b] && a < b)
}

// up sifts the entry at position k toward the root.
func (w *siteWalk) up(k int) {
	for k > 0 {
		p := (k - 1) / 2
		if !w.less(w.heap[k], w.heap[p]) {
			return
		}
		w.heap[k], w.heap[p] = w.heap[p], w.heap[k]
		k = p
	}
}

// down sifts the entry at position k toward the leaves.
func (w *siteWalk) down(k int) {
	n := len(w.heap)
	for {
		c := 2*k + 1
		if c >= n {
			return
		}
		if c+1 < n && w.less(w.heap[c+1], w.heap[c]) {
			c++
		}
		if !w.less(w.heap[c], w.heap[k]) {
			return
		}
		w.heap[k], w.heap[c] = w.heap[c], w.heap[k]
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
