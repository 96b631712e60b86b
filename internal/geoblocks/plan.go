package geoblocks

import (
	"context"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fsum"
	"repro/internal/geom"
	"repro/internal/raster"
)

// Cell identifies one pyramid cell: (X, Y) on the 2^Level × 2^Level grid.
type Cell struct {
	Level int32
	X, Y  int32
}

// Plan is the classification of the pyramid against one query polygon.
//
// Invariant (the metamorphic suite and FuzzClassify prove it): the
// descendant sets of Interior cells and the Fringe cells are pairwise
// disjoint, Fringe cells all sit at the finest level, and together they
// cover every finest cell whose expanded box meets the polygon — so every
// indexed point inside the polygon is counted exactly once (from a stored
// aggregate or by refinement) and every point outside contributes nothing.
type Plan struct {
	// Interior cells lie entirely inside the polygon; their stored
	// aggregates are folded directly. Cells may come from any level.
	Interior []Cell
	// Fringe cells (finest level only) are crossed by the polygon
	// boundary; their points take the exact point-in-polygon test.
	Fringe []Cell
	// Pruned counts subtrees discarded as entirely outside.
	Pruned int
}

// classifyPollStride is how many visited cells the classifier processes
// between context polls.
const classifyPollStride = 256

type segment struct{ a, b geom.Point }

// classifier carries one classification walk.
type classifier struct {
	ix      *Index
	pg      geom.Polygon
	pgBox   geom.BBox
	visited int
	plan    Plan
}

// Classify partitions the pyramid against pg. The walk descends from the
// root cell, carrying only the polygon edges that intersect the current
// cell's (conservatively expanded) box: no surviving edges means the cell
// boundary is not crossed, so the whole cell is uniformly inside or
// outside and one center containment test decides which; surviving edges
// at the finest level make the cell fringe.
func (ix *Index) Classify(ctx context.Context, pg geom.Polygon) (Plan, error) {
	if ix.empty {
		return Plan{}, nil
	}
	cl := &classifier{ix: ix, pg: pg, pgBox: pg.BBox()}
	var edges []segment
	pg.Edges(func(a, b geom.Point) bool {
		edges = append(edges, segment{a, b})
		return true
	})
	if err := cl.walk(ctx, 0, 0, 0, edges); err != nil {
		return Plan{}, err
	}
	return cl.plan, nil
}

func (cl *classifier) walk(ctx context.Context, level, cx, cy int, edges []segment) error {
	cl.visited++
	if cl.visited%classifyPollStride == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	box := cl.ix.cellBox(level, cx, cy)
	ebox := box.Expand(cl.ix.eps)
	if !ebox.Intersects(cl.pgBox) {
		cl.plan.Pruned++
		return nil
	}
	// Keep the edges that intersect the expanded box (Liang-Barsky keeps
	// touching and fully-interior segments — conservative on ties).
	var sub []segment
	for _, e := range edges {
		if _, _, ok := geom.ClipSegmentToBBox(e.a, e.b, ebox); ok {
			sub = append(sub, e)
		}
	}
	if len(sub) == 0 {
		// The polygon boundary avoids the expanded box entirely, so
		// containment is uniform across it; the center decides.
		if cl.pg.Contains(box.Center()) {
			cl.plan.Interior = append(cl.plan.Interior,
				Cell{Level: int32(level), X: int32(cx), Y: int32(cy)})
		} else {
			cl.plan.Pruned++
		}
		return nil
	}
	if level == cl.ix.maxLevel {
		cl.plan.Fringe = append(cl.plan.Fringe,
			Cell{Level: int32(level), X: int32(cx), Y: int32(cy)})
		return nil
	}
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			if err := cl.walk(ctx, level+1, 2*cx+dx, 2*cy+dy, sub); err != nil {
				return err
			}
		}
	}
	return nil
}

// refinePollStride is how many fringe cells the refinement processes
// between context polls.
const refinePollStride = 64

// RegionStat folds a plan into one region's aggregate state: interior
// cells from stored aggregates, fringe cells by the exact point-in-polygon
// test the accurate join uses for boundary fragments. ap selects the
// attribute pyramid (nil for COUNT). The sum is compensated across cells
// and refined points alike.
func (ix *Index) RegionStat(ctx context.Context, pg geom.Polygon, pl Plan, ap *attrPyr) (core.RegionStat, error) {
	var cnt int64
	var ks fsum.Kahan
	mn, mx := math.Inf(1), math.Inf(-1)

	for _, c := range pl.Interior {
		side := int(1) << c.Level
		i := int(c.Y)*side + int(c.X)
		cc := ix.counts[c.Level][i]
		if cc == 0 {
			continue
		}
		cnt += cc
		if ap != nil {
			ks.Add(ap.sums[c.Level][i])
			if ap.mins[c.Level][i] < mn {
				mn = ap.mins[c.Level][i]
			}
			if ap.maxs[c.Level][i] > mx {
				mx = ap.maxs[c.Level][i]
			}
		}
	}

	side := int(1) << ix.maxLevel
	for fi, c := range pl.Fringe {
		if fi%refinePollStride == 0 {
			if err := ctx.Err(); err != nil {
				return core.RegionStat{}, err
			}
		}
		i := int(c.Y)*side + int(c.X)
		refine(ix, pg, ix.order[ix.start[i]:ix.start[i+1]], ap, &cnt, &ks, &mn, &mx)
		if ix.tailStart != nil {
			// A patched index keeps appended points in a separate tail CSR;
			// base-then-tail enumeration is increasing id order, matching a
			// rebuilt index bit for bit.
			refine(ix, pg, ix.tailOrder[ix.tailStart[i]:ix.tailStart[i+1]], ap, &cnt, &ks, &mn, &mx)
		}
	}

	if cnt == 0 {
		return core.RegionStat{}, nil
	}
	st := core.RegionStat{Count: cnt}
	if ap != nil {
		st.Sum = ks.Sum()
		st.Min, st.Max = mn, mx
	}
	return st, nil
}

// refine runs the exact point-in-polygon test over one fringe cell's
// candidate id list, folding survivors into the caller's aggregate state.
func refine(ix *Index, pg geom.Polygon, ids []int32, ap *attrPyr, cnt *int64, ks *fsum.Kahan, mn, mx *float64) {
	for _, id := range ids {
		if !pg.Contains(geom.Point{X: ix.ps.X[id], Y: ix.ps.Y[id]}) {
			continue
		}
		*cnt++
		if ap != nil {
			v := ap.col[id]
			ks.Add(v)
			if v < *mn {
				*mn = v
			}
			if v > *mx {
				*mx = v
			}
		}
	}
}

// FringePoints returns the number of candidate points the plan's fringe
// cells hold — the refinement workload.
func (ix *Index) FringePoints(pl Plan) int {
	if ix.empty {
		return 0
	}
	side := int(1) << ix.maxLevel
	n := 0
	for _, c := range pl.Fringe {
		i := int(c.Y)*side + int(c.X)
		n += int(ix.start[i+1] - ix.start[i])
		if ix.tailStart != nil {
			n += int(ix.tailStart[i+1] - ix.tailStart[i])
		}
	}
	return n
}

// estimatePollStride is how many regions FringeEstimate traces between
// context polls.
const estimatePollStride = 64

// FringeEstimate approximates Σ FringePoints over rs without classifying
// it: per region, the finest cells its edges pass through
// (raster.BoundaryPixels on the finest grid, each cell once), summed over
// the points those cells hold. Classification also makes fringe the cells
// an edge only grazes through their ε-expanded box, so the estimate falls
// short of the exact count by about the points of such cells. It is a
// function of the polygons and the finest counts alone, which a patched
// index and a rebuild over the same points share.
func (ix *Index) FringeEstimate(ctx context.Context, rs *data.RegionSet) (int, error) {
	if ix.empty {
		return 0, nil
	}
	side := 1 << ix.maxLevel
	t := raster.NewTransform(ix.bounds, side, side)
	fin := ix.counts[ix.maxLevel]
	var cells []int32
	n := 0
	for k := range rs.Regions {
		if k%estimatePollStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		cells = cells[:0]
		raster.BoundaryPixels(t, rs.Regions[k].Poly, func(px, py int) {
			cells = append(cells, int32(py*side+px))
		})
		slices.Sort(cells)
		for _, c := range slices.Compact(cells) {
			n += int(fin[c])
		}
	}
	return n, nil
}
