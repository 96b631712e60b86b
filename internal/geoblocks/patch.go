package geoblocks

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/data"
	"repro/internal/fsum"
	"repro/internal/geom"
)

// PatchAppend returns a new Index over newPS — which must be ix's point set
// plus appended points (the framework's copy-on-write append) — without
// rebuilding the pyramid: it computes delta aggregates over only the cells
// the appended points land in and their ancestors, and merges them into
// copies of the base levels cell by cell. Counts add
// exactly and min/max update monotonically, so both stay bit-identical to a
// from-scratch rebuild; sums merge one compensated tail partial into one
// compensated base partial with a single add per cell, which carries the
// same ε bound the package documents for SUM against the raster join.
//
// The base CSR is shared untouched; appended points live in a separate tail
// CSR over ids >= baseLen. Because ids are assigned in index order, a cell's
// candidates — base ids then tail ids — enumerate in exactly the order a
// rebuild's counting sort would produce, so fringe refinement stays
// bit-identical to a rebuilt index for every aggregate.
//
// Patching refuses (returns an error, caller falls back to a lazy rebuild)
// when the base is empty, when any appended point falls outside the grid
// bounds (clamping it into an edge cell would let interior-cell folds count
// points the cell box does not contain), or when the accumulated tail
// outgrows the base (a rebuild re-balances the CSR instead of letting fringe
// refinement degrade).
func (ix *Index) PatchAppend(ctx context.Context, newPS *data.PointSet) (*Index, error) {
	if ix.empty {
		return nil, fmt.Errorf("geoblocks: patch: base index is empty")
	}
	if err := newPS.Validate(); err != nil {
		return nil, err
	}
	oldLen, n := ix.Len(), newPS.Len()
	if n <= oldLen {
		return nil, fmt.Errorf("geoblocks: patch: new set has %d points, base indexed %d", n, oldLen)
	}
	if n-ix.baseLen > ix.baseLen {
		return nil, fmt.Errorf("geoblocks: patch: tail (%d points) outgrew base (%d)",
			n-ix.baseLen, ix.baseLen)
	}
	for i := oldLen; i < n; i++ {
		if (i-oldLen)%buildPollStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !ix.bounds.Contains(geom.Point{X: newPS.X[i], Y: newPS.Y[i]}) {
			return nil, fmt.Errorf("geoblocks: patch: appended point %d (%g, %g) outside grid bounds %v",
				i, newPS.X[i], newPS.Y[i], ix.bounds)
		}
	}

	out := &Index{
		ps:       newPS,
		bounds:   ix.bounds,
		maxLevel: ix.maxLevel,
		eps:      ix.eps,
		baseLen:  ix.baseLen,
		start:    ix.start,
		order:    ix.order,
		attrs:    make(map[string]*attrPyr, len(ix.attrs)),
		finW:     ix.finW,
		finH:     ix.finH,
	}
	side := 1 << ix.maxLevel
	cells := side * side

	// Tail CSR over every post-base point (previous tails included, so a
	// patched index can be patched again).
	tn := n - ix.baseLen
	out.tailStart = make([]int32, cells+1)
	tailCell := make([]int32, tn)
	for i := 0; i < tn; i++ {
		if i%buildPollStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c := out.finestCell(newPS.X[ix.baseLen+i], newPS.Y[ix.baseLen+i])
		tailCell[i] = c
		out.tailStart[c+1]++
	}
	for c := 0; c < cells; c++ {
		out.tailStart[c+1] += out.tailStart[c]
	}
	out.tailOrder = make([]int32, tn)
	cursor := make([]int32, cells)
	for i := 0; i < tn; i++ {
		c := tailCell[i]
		out.tailOrder[out.tailStart[c]+cursor[c]] = int32(ix.baseLen + i)
		cursor[c]++
	}

	// Delta pyramids over only the cells the newly appended ids [oldLen, n)
	// land in and their ancestors, reduced four children per parent in
	// reduceAttr's order, then merged into copies of the base levels.
	lv := touchedPyramid(tailCell[oldLen-ix.baseLen:], ix.maxLevel)
	out.counts = make([][]int64, ix.maxLevel+1)
	for l := range out.counts {
		merged := append([]int64(nil), ix.counts[l]...)
		for i, c := range lv[l].cells {
			merged[c] += lv[l].counts[i]
		}
		out.counts[l] = merged
	}

	// Per-attribute delta pyramids. The finest-level delta groups the new
	// points per cell in id order (walking the tail CSR and skipping ids the
	// base pyramid already holds), so repeated patches accumulate in the
	// same deterministic order the appends arrived in.
	fin := &lv[ix.maxLevel]
	for name, ap := range ix.attrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		col := newPS.Attr(name)
		if col == nil {
			return nil, fmt.Errorf("geoblocks: patch: new set lost attribute %q", name)
		}
		dS := make([][]float64, ix.maxLevel+1)
		dM := make([][]float64, ix.maxLevel+1)
		dX := make([][]float64, ix.maxLevel+1)
		for l := range lv {
			k := len(lv[l].cells)
			dS[l], dM[l], dX[l] = make([]float64, k), make([]float64, k), make([]float64, k)
		}
		for i, c := range fin.cells {
			var ks fsum.Kahan
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, id := range out.tailOrder[out.tailStart[c]:out.tailStart[c+1]] {
				if int(id) < oldLen {
					continue
				}
				v := col[id]
				ks.Add(v)
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			dS[ix.maxLevel][i], dM[ix.maxLevel][i], dX[ix.maxLevel][i] = ks.Sum(), mn, mx
		}
		for l := ix.maxLevel - 1; l >= 0; l-- {
			for i, kids := range lv[l].kids {
				var ks fsum.Kahan
				mn, mx := math.Inf(1), math.Inf(-1)
				for _, j := range kids {
					if j < 0 {
						continue // no new id in this child
					}
					ks.Add(dS[l+1][j])
					if dM[l+1][j] < mn {
						mn = dM[l+1][j]
					}
					if dX[l+1][j] > mx {
						mx = dX[l+1][j]
					}
				}
				dS[l][i], dM[l][i], dX[l][i] = ks.Sum(), mn, mx
			}
		}

		nap := &attrPyr{
			col:  col,
			sums: make([][]float64, ix.maxLevel+1),
			mins: make([][]float64, ix.maxLevel+1),
			maxs: make([][]float64, ix.maxLevel+1),
		}
		for l := 0; l <= ix.maxLevel; l++ {
			ms := append([]float64(nil), ap.sums[l]...)
			mmn := append([]float64(nil), ap.mins[l]...)
			mmx := append([]float64(nil), ap.maxs[l]...)
			for i, c := range lv[l].cells {
				if ix.counts[l][c] == 0 {
					// The cell was empty before the append: the delta partial
					// is the whole cell, no merge rounding at all.
					ms[c], mmn[c], mmx[c] = dS[l][i], dM[l][i], dX[l][i]
					continue
				}
				//lint:ignore floataccum exactly one add per cell per patch: delta partial into base partial, the documented single-merge ε bound
				ms[c] += dS[l][i]
				if dM[l][i] < mmn[c] {
					mmn[c] = dM[l][i]
				}
				if dX[l][i] > mmx[c] {
					mmx[c] = dX[l][i]
				}
			}
			nap.sums[l], nap.mins[l], nap.maxs[l] = ms, mmn, mmx
		}
		out.attrs[name] = nap
	}
	return out, nil
}

// touchedLevel lists the cells of one pyramid level that appended points
// land in, in increasing cell order, with each cell's count of appended
// points. Above the finest level, kids holds each cell's four children as
// positions in the finer level's list, in reduceAttr's order, -1 for a
// child no appended point lands in.
type touchedLevel struct {
	cells  []int32
	counts []int64
	kids   [][4]int32
}

// touchedPyramid returns the touched cells of every level 0..maxLevel
// given the finest cell of each appended point: the work of a patch is
// proportional to the tail and the pyramid's depth, never to its cells.
func touchedPyramid(finest []int32, maxLevel int) []touchedLevel {
	lv := make([]touchedLevel, maxLevel+1)
	sorted := slices.Clone(finest)
	slices.Sort(sorted)
	fin := &lv[maxLevel]
	for _, c := range sorted {
		if k := len(fin.cells); k > 0 && fin.cells[k-1] == c {
			fin.counts[k-1]++
			continue
		}
		fin.cells = append(fin.cells, c)
		fin.counts = append(fin.counts, 1)
	}
	for l := maxLevel - 1; l >= 0; l-- {
		child := &lv[l+1]
		childSide := int32(1) << (l + 1)
		side := childSide / 2
		cells := make([]int32, len(child.cells))
		for i, c := range child.cells {
			cells[i] = (c/childSide/2)*side + (c%childSide)/2
		}
		slices.Sort(cells)
		cells = slices.Compact(cells)
		p := &lv[l]
		p.cells = cells
		p.counts = make([]int64, len(cells))
		p.kids = make([][4]int32, len(cells))
		for i, c := range cells {
			cy, cx := c/side, c%side
			for k, ci := range [4]int32{
				(2 * cy * childSide) + 2*cx,
				(2 * cy * childSide) + 2*cx + 1,
				((2*cy + 1) * childSide) + 2*cx,
				((2*cy + 1) * childSide) + 2*cx + 1,
			} {
				j, ok := slices.BinarySearch(child.cells, ci)
				if !ok {
					p.kids[i][k] = -1
					continue
				}
				p.kids[i][k] = int32(j)
				p.counts[i] += child.counts[j]
			}
		}
	}
	return lv
}
