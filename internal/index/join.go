package index

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// BruteForce is the exact reference joiner: every filtered point is tested
// against every region with a bbox pre-check and an exact point-in-polygon
// test. O(P×R); used as ground truth in tests and as the naive baseline.
type BruteForce struct {
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int
}

// Name implements core.Joiner.
func (b *BruteForce) Name() string { return "brute-force" }

// Join is JoinContext under a background context, kept only because
// benchmark/ calls it; ROADMAP item 5 deletes it with the benchmark's next
// change.
func (b *BruteForce) Join(req core.Request) (*core.Result, error) {
	return b.JoinContext(context.Background(), req)
}

// JoinContext implements core.Joiner. The context is checked once up
// front.
func (b *BruteForce) JoinContext(ctx context.Context, req core.Request) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	lo, hi, pred, err := pointPredicate(req)
	if err != nil {
		return nil, err
	}
	var attr []float64
	if req.Agg.NeedsAttr() {
		attr = req.Points.Attr(req.Attr)
	}
	res := &core.Result{
		Stats:     make([]core.RegionStat, req.Regions.Len()),
		Algorithm: b.Name(),
	}
	ps := req.Points
	regions := req.Regions.Regions
	parallelRegions(b.Workers, len(regions), func(k int) {
		poly := regions[k].Poly
		bb := poly.BBox()
		var st core.RegionStat
		for i := lo; i < hi; i++ {
			if pred != nil && !pred(i) {
				continue
			}
			p := geom.Point{X: ps.X[i], Y: ps.Y[i]}
			if !bb.Contains(p) || !poly.Contains(p) {
				continue
			}
			if attr != nil {
				st.Observe(attr[i])
			} else {
				st.Count++
			}
		}
		res.Stats[k] = st
	})
	return res, nil
}

// GridJoin is the paper's index-join baseline: points are indexed in a
// uniform grid; each region probes the cells overlapping its bounding box
// and resolves every candidate with an exact point-in-polygon test.
//
// The index is built once per point set and reused across queries (index
// construction is preprocessing in the paper's methodology); call Prepare
// to pay the build cost explicitly.
type GridJoin struct {
	// Side is the grid resolution (cells per side); 0 derives it from the
	// point count.
	Side int
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int

	mu     sync.Mutex
	cached *GridIndex
}

// Name implements core.Joiner.
func (g *GridJoin) Name() string { return "index-join-grid" }

// Prepare builds (or rebuilds) the grid over the point set.
func (g *GridJoin) Prepare(ps *data.PointSet) {
	side := g.Side
	if side <= 0 {
		side = DefaultGridSide(ps.Len())
	}
	idx := BuildGrid(ps, side)
	g.mu.Lock()
	g.cached = idx
	g.mu.Unlock()
}

func (g *GridJoin) indexFor(ps *data.PointSet) *GridIndex {
	g.mu.Lock()
	idx := g.cached
	g.mu.Unlock()
	if idx == nil || idx.PointSet() != ps {
		g.Prepare(ps)
		g.mu.Lock()
		idx = g.cached
		g.mu.Unlock()
	}
	return idx
}

// JoinContext implements core.Joiner. The context is checked once up
// front.
func (g *GridJoin) JoinContext(ctx context.Context, req core.Request) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	idx := g.indexFor(req.Points)
	return probeJoin(req, g.Name(), g.Workers, idx.CandidatesInBBox)
}

// probeJoin runs the polygon-probes-point-index join: for each region, pull
// bbox candidates from the index and resolve them exactly.
func probeJoin(req core.Request, name string, workers int,
	candidates func(geom.BBox, func(int32))) (*core.Result, error) {

	lo, hi, pred, err := pointPredicate(req)
	if err != nil {
		return nil, err
	}
	var attr []float64
	if req.Agg.NeedsAttr() {
		attr = req.Points.Attr(req.Attr)
	}
	res := &core.Result{
		Stats:     make([]core.RegionStat, req.Regions.Len()),
		Algorithm: name,
	}
	ps := req.Points
	regions := req.Regions.Regions
	parallelRegions(workers, len(regions), func(k int) {
		poly := regions[k].Poly
		bb := poly.BBox()
		var st core.RegionStat
		candidates(bb, func(id int32) {
			i := int(id)
			if i < lo || i >= hi {
				return
			}
			if pred != nil && !pred(i) {
				return
			}
			p := geom.Point{X: ps.X[i], Y: ps.Y[i]}
			if !bb.Contains(p) || !poly.Contains(p) {
				return
			}
			if attr != nil {
				st.Observe(attr[i])
			} else {
				st.Count++
			}
		})
		res.Stats[k] = st
	})
	return res, nil
}

// RTreeJoin runs the join in the opposite direction: regions' bounding
// boxes are indexed in an STR R-tree and every filtered point probes it,
// resolving candidate regions exactly. This direction wins when points
// vastly outnumber regions and most probes touch few candidates.
type RTreeJoin struct {
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int

	mu      sync.Mutex
	regions *data.RegionSet
	tree    *RTree
}

// Name implements core.Joiner.
func (r *RTreeJoin) Name() string { return "index-join-rtree" }

// Prepare builds (or rebuilds) the R-tree over the region set.
func (r *RTreeJoin) Prepare(rs *data.RegionSet) {
	boxes := make([]geom.BBox, rs.Len())
	for i, reg := range rs.Regions {
		boxes[i] = reg.Poly.BBox()
	}
	t := BuildRTree(boxes)
	r.mu.Lock()
	r.regions, r.tree = rs, t
	r.mu.Unlock()
}

func (r *RTreeJoin) treeFor(rs *data.RegionSet) *RTree {
	r.mu.Lock()
	t, cachedFor := r.tree, r.regions
	r.mu.Unlock()
	if t == nil || cachedFor != rs {
		r.Prepare(rs)
		r.mu.Lock()
		t = r.tree
		r.mu.Unlock()
	}
	return t
}

// JoinContext implements core.Joiner. The context is checked once up
// front.
func (r *RTreeJoin) JoinContext(ctx context.Context, req core.Request) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	tree := r.treeFor(req.Regions)
	lo, hi, pred, err := pointPredicate(req)
	if err != nil {
		return nil, err
	}
	var attr []float64
	if req.Agg.NeedsAttr() {
		attr = req.Points.Attr(req.Attr)
	}
	res := &core.Result{
		Stats:     make([]core.RegionStat, req.Regions.Len()),
		Algorithm: r.Name(),
	}
	ps := req.Points
	regions := req.Regions.Regions

	workers := effectiveWorkers(r.Workers)
	shard := (hi - lo + workers - 1) / workers
	if shard < 1 {
		shard = 1
	}
	// Race audit: each goroutine writes only its own `part` slice, passed
	// as an argument; the shared `partials`, `res.Stats`, tree and attr
	// are read-only until wg.Wait() establishes the happens-before edge
	// for the single-threaded merge below.
	var wg sync.WaitGroup
	partials := make([][]core.RegionStat, 0, workers)
	for s := lo; s < hi; s += shard {
		e := s + shard
		if e > hi {
			e = hi
		}
		part := make([]core.RegionStat, len(res.Stats))
		partials = append(partials, part)
		wg.Add(1)
		go func(s, e int, part []core.RegionStat) {
			defer wg.Done()
			for i := s; i < e; i++ {
				if pred != nil && !pred(i) {
					continue
				}
				p := geom.Point{X: ps.X[i], Y: ps.Y[i]}
				tree.SearchPoint(p, func(id int32) {
					if !regions[id].Poly.Contains(p) {
						return
					}
					if attr != nil {
						part[id].Observe(attr[i])
					} else {
						part[id].Count++
					}
				})
			}
		}(s, e, part)
	}
	wg.Wait()
	for _, part := range partials {
		for k := range part {
			res.Stats[k].Merge(part[k])
		}
	}
	return res, nil
}

func effectiveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// parallelRegions fans region indices [0,n) across workers.
//
// Race audit: the atomic cursor hands each k to one goroutine, so callers
// that write only stats[k] are partitioned; wg.Wait() sequences the
// caller's reads after every write.
func parallelRegions(workers, n int, fn func(k int)) {
	w := effectiveWorkers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}

// pointPredicate compiles the request's attribute filters into a single
// per-point predicate, plus the index range to scan. With a time-sorted
// point set the time filter narrows the range; otherwise it joins the
// predicate.
//
// The returned pred is nil when no per-point test is needed (scan the whole
// range).
func pointPredicate(req core.Request) (lo, hi int, pred func(i int) bool, err error) {
	ps := req.Points
	lo, hi = 0, ps.Len()

	var tests []func(i int) bool
	if req.Time != nil {
		sorted := true
		for i := 1; i < len(ps.T); i++ {
			if ps.T[i-1] > ps.T[i] {
				sorted = false
				break
			}
		}
		if sorted {
			lo, hi = ps.TimeWindow(req.Time.Start, req.Time.End)
		} else {
			start, end := req.Time.Start, req.Time.End
			t := ps.T
			tests = append(tests, func(i int) bool { return t[i] >= start && t[i] < end })
		}
	}
	for _, f := range req.Filters {
		col := ps.Attr(f.Attr)
		if col == nil {
			return 0, 0, nil, fmt.Errorf("index: filter attribute %q missing", f.Attr)
		}
		fmin, fmax := f.Min, f.Max
		tests = append(tests, func(i int) bool { return col[i] >= fmin && col[i] < fmax })
	}
	switch len(tests) {
	case 0:
		return lo, hi, nil, nil
	case 1:
		return lo, hi, tests[0], nil
	default:
		return lo, hi, func(i int) bool {
			for _, t := range tests {
				if !t(i) {
					return false
				}
			}
			return true
		}, nil
	}
}
