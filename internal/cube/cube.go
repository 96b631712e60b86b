// Package cube implements the pre-aggregation baseline the paper's
// introduction argues against: a spatio-temporal aggregate cube built over
// a fixed region layer and fixed time bins.
//
// Once built, the cube answers its canned query family (count/sum/avg per
// region per aligned time range) in microseconds — but it cannot serve
// ad-hoc filter conditions, ad-hoc polygons, or misaligned time ranges;
// those return ErrUnsupported. Raster Join exists precisely to cover that
// gap at interactive speed.
package cube

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fsum"
	"repro/internal/geom"
	"repro/internal/index"
)

// ErrUnsupported is returned for queries outside the cube's pre-aggregated
// family: different region sets, attribute filters, unaligned time windows,
// or attributes that were not materialized.
var ErrUnsupported = errors.New("cube: query not servable from pre-aggregation")

// Config declares what the cube materializes.
type Config struct {
	// Regions is the fixed region layer the cube is keyed on.
	Regions *data.RegionSet
	// TimeBin is the bin width in seconds (e.g. 3600 or 86400). Zero
	// collapses time: one bin covering everything, and any time-filtered
	// query is unsupported.
	TimeBin int64
	// Attrs lists the attribute columns whose per-cell sums are
	// materialized (enabling SUM/AVG on exactly these).
	Attrs []string
}

// Cube is the materialized aggregate: counts and attribute sums per
// (time bin × region) cell.
type Cube struct {
	cfg    Config
	points *data.PointSet
	start  int64 // start timestamp of bin 0
	bins   int
	nr     int
	counts []int64
	sums   map[string][]float64
}

// Build scans the point set once, assigning every point to its containing
// region (exact point-in-polygon via an R-tree over region boxes) and
// accumulating the per-cell aggregates. This is the offline preprocessing
// step whose cost pre-aggregation pays up front.
func Build(ps *data.PointSet, cfg Config) (*Cube, error) {
	return build(ps, ps.Source(), cfg)
}

// buildShards is the number of point ranges build cuts the points into,
// whatever the worker count.
const buildShards = 16

// build is Build reading the points through src, which must hold ps's
// points in ps's order (ps.Source(), or a segment store written from ps).
func build(ps *data.PointSet, src data.PointSource, cfg Config) (*Cube, error) {
	if cfg.Regions == nil {
		return nil, errors.New("cube: config needs a region set")
	}
	for _, a := range cfg.Attrs {
		if ps.Attr(a) == nil {
			return nil, fmt.Errorf("cube: attribute %q not in point set %q", a, ps.Name)
		}
	}
	c := &Cube{cfg: cfg, points: ps, nr: cfg.Regions.Len()}

	if cfg.TimeBin > 0 && ps.T != nil && ps.Len() > 0 {
		tmin, tmax, _ := ps.TimeRange()
		c.start = (tmin / cfg.TimeBin) * cfg.TimeBin
		if tmin < 0 && c.start > tmin {
			c.start -= cfg.TimeBin
		}
		c.bins = int((tmax-c.start)/cfg.TimeBin) + 1
	} else {
		c.bins = 1
	}

	cells := c.bins * c.nr
	c.counts = make([]int64, cells)
	c.sums = make(map[string][]float64, len(cfg.Attrs))
	for _, a := range cfg.Attrs {
		c.sums[a] = make([]float64, cells)
	}
	if c.nr == 0 || ps.Len() == 0 {
		return c, nil
	}

	boxes := make([]geom.BBox, c.nr)
	for i, r := range cfg.Regions.Regions {
		boxes[i] = r.Poly.BBox()
	}
	tree := index.BuildRTree(boxes)
	regions := cfg.Regions.Regions

	cols := data.Columns{T: cfg.TimeBin > 0}
	attrIdxs := make([]int, len(cfg.Attrs))
	for i, a := range cfg.Attrs {
		attrIdxs[i] = data.AttrIndex(src, a)
	}
	cols.Need(attrIdxs...)

	// Parallel over buildShards point shards with per-shard cells, merged
	// in shard order. The shard cuts and the merge order are fixed, so the
	// float sums — and the cube's bits — do not depend on GOMAXPROCS; the
	// workers only decide how many shards run at once. Each shard walks its
	// index range in source blocks (zero-copy for the in-RAM set; read block
	// by block, projected to X, Y, T when binning by time and the summed
	// attributes, for segment-backed sources).
	//
	// Race audit: each goroutine owns the `partial` it receives as an
	// argument (counts/sums allocated per worker); the spatial index and
	// source blocks are read-only. The merge into c.counts/c.sums runs
	// single-threaded after each wave's wg.Wait().
	n := ps.Len()
	shard := max((n+buildShards-1)/buildShards, 1)
	workers := min(runtime.GOMAXPROCS(0), buildShards)
	type partial struct {
		counts []int64
		sums   [][]float64
	}
	parts := make([]partial, workers)
	for w := range parts {
		parts[w] = partial{counts: make([]int64, cells), sums: make([][]float64, len(cfg.Attrs))}
		for i := range parts[w].sums {
			parts[w].sums[i] = make([]float64, cells)
		}
	}
	for wave := 0; wave < n; wave += workers * shard {
		var wg sync.WaitGroup
		used := 0
		for s := wave; s < min(wave+workers*shard, n); s += shard {
			wg.Add(1)
			go func(s, e int, p partial) {
				defer wg.Done()
				_ = data.WalkBlocks(src, s, e, cols, func(blk *data.Block, bs, be int) error {
					base := blk.Base
					for i := bs; i < be; i++ {
						j := i - base
						pt := geom.Point{X: blk.X[j], Y: blk.Y[j]}
						bin := 0
						if c.cfg.TimeBin > 0 && blk.T != nil {
							bin = int((blk.T[j] - c.start) / c.cfg.TimeBin)
						}
						tree.SearchPoint(pt, func(id int32) {
							if !regions[id].Poly.Contains(pt) {
								return
							}
							cell := bin*c.nr + int(id)
							p.counts[cell]++
							for a, ai := range attrIdxs {
								//lint:ignore floataccum build hot path; error bounded per shard, partials merged below
								p.sums[a][cell] += blk.Attr[ai][j]
							}
						})
					}
					return nil
				})
			}(s, min(s+shard, n), parts[used])
			used++
		}
		wg.Wait()
		for _, p := range parts[:used] {
			for i, v := range p.counts {
				c.counts[i] += v
			}
			clear(p.counts)
			for a, name := range cfg.Attrs {
				dst := c.sums[name]
				for i, v := range p.sums[a] {
					//lint:ignore floataccum merge of buildShards shard partials per cell, in shard order
					dst[i] += v
				}
				clear(p.sums[a])
			}
		}
	}
	return c, nil
}

// Name implements core.Joiner.
func (c *Cube) Name() string { return "pre-aggregation-cube" }

// Bins returns the number of time bins.
func (c *Cube) Bins() int { return c.bins }

// BinStart returns the start timestamp of bin b.
func (c *Cube) BinStart(b int) int64 { return c.start + int64(b)*c.cfg.TimeBin }

// MemoryCells returns the number of materialized (bin × region) cells — the
// cube's space cost.
func (c *Cube) MemoryCells() int { return len(c.counts) }

// CanServe reports whether the request falls inside the cube's canned
// query family, returning a wrapped ErrUnsupported naming the first
// violation otherwise. The query planner uses this to route queries.
func (c *Cube) CanServe(req core.Request) error {
	if req.Regions != c.cfg.Regions {
		return fmt.Errorf("%w: region set %q is not the cube's layer",
			ErrUnsupported, req.Regions.Name)
	}
	if req.Points != c.points {
		return fmt.Errorf("%w: point set %q is not the cube's base data",
			ErrUnsupported, req.Points.Name)
	}
	if len(req.Filters) > 0 {
		return fmt.Errorf("%w: ad-hoc filter on %q", ErrUnsupported, req.Filters[0].Attr)
	}
	if req.Agg == core.Min || req.Agg == core.Max {
		return fmt.Errorf("%w: %v not materialized (cube stores counts and sums)",
			ErrUnsupported, req.Agg)
	}
	if req.Agg.NeedsAttr() {
		if _, ok := c.sums[req.Attr]; !ok {
			return fmt.Errorf("%w: attribute %q not materialized", ErrUnsupported, req.Attr)
		}
	}
	if req.Time != nil {
		if c.cfg.TimeBin <= 0 {
			return fmt.Errorf("%w: cube has no time dimension", ErrUnsupported)
		}
		if (req.Time.Start-c.start)%c.cfg.TimeBin != 0 ||
			(req.Time.End-c.start)%c.cfg.TimeBin != 0 {
			return fmt.Errorf("%w: time range not aligned to %ds bins",
				ErrUnsupported, c.cfg.TimeBin)
		}
	}
	return nil
}

// JoinContext implements core.Joiner for the canned query family. It
// returns ErrUnsupported (wrapped with the reason) for anything the cube
// cannot answer exactly. The context is checked once up front.
func (c *Cube) JoinContext(ctx context.Context, req core.Request) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.CanServe(req); err != nil {
		return nil, err
	}

	lo, hi := 0, c.bins // bin range [lo, hi)
	if req.Time != nil {
		lo = int((req.Time.Start - c.start) / c.cfg.TimeBin)
		hi = int((req.Time.End - c.start) / c.cfg.TimeBin)
		if lo < 0 {
			lo = 0
		}
		if hi > c.bins {
			hi = c.bins
		}
		if hi < lo {
			hi = lo
		}
	}

	res := &core.Result{
		Stats:     make([]core.RegionStat, c.nr),
		Algorithm: c.Name(),
	}
	var sums []float64
	var sumAcc []fsum.Kahan
	if req.Agg.NeedsAttr() {
		sums = c.sums[req.Attr]
		// A year-long range folds hundreds of bins per region; compensate
		// so the rolled-up sums match a direct scan to the last digit.
		sumAcc = make([]fsum.Kahan, c.nr)
	}
	for b := lo; b < hi; b++ {
		base := b * c.nr
		for k := 0; k < c.nr; k++ {
			res.Stats[k].Count += c.counts[base+k]
			if sums != nil {
				sumAcc[k].Add(sums[base+k])
			}
		}
	}
	if sumAcc != nil {
		for k := range res.Stats {
			res.Stats[k].Sum = sumAcc[k].Sum()
		}
	}
	return res, nil
}
