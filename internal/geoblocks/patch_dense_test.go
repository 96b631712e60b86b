package geoblocks

// The reference for PatchAppend: the dense patch, which reduced delta
// pyramids over every cell of every level, kept here so the sparse patch
// can be held to it bit for bit.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/fsum"
	"repro/internal/geom"
)

// densePatchAppend is PatchAppend as it was before it computed deltas over
// only the touched cells: full-size delta pyramids reduced with
// reduceCounts and reduceAttr, merged over every cell.
func densePatchAppend(ctx context.Context, ix *Index, newPS *data.PointSet) (*Index, error) {
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

	// Delta count pyramid over only the newly appended ids [oldLen, n),
	// reduced with the same machinery as a build, then merged exactly.
	dfin := make([]int64, cells)
	for i := oldLen; i < n; i++ {
		dfin[out.finestCell(newPS.X[i], newPS.Y[i])]++
	}
	dcounts := make([][]int64, ix.maxLevel+1)
	dcounts[ix.maxLevel] = dfin
	for l := ix.maxLevel - 1; l >= 0; l-- {
		dcounts[l] = reduceCounts(dcounts[l+1], 1<<(l+1))
	}
	out.counts = make([][]int64, ix.maxLevel+1)
	for l := range out.counts {
		merged := make([]int64, len(ix.counts[l]))
		copy(merged, ix.counts[l])
		for c, d := range dcounts[l] {
			merged[c] += d
		}
		out.counts[l] = merged
	}

	// Per-attribute delta pyramids. The finest-level delta groups the new
	// points per cell in id order (walking the tail CSR and skipping ids the
	// base pyramid already holds), so repeated patches accumulate in the
	// same deterministic order the appends arrived in.
	for name, ap := range ix.attrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		col := newPS.Attr(name)
		if col == nil {
			return nil, fmt.Errorf("geoblocks: patch: new set lost attribute %q", name)
		}
		dsums := make([]float64, cells)
		dmins := make([]float64, cells)
		dmaxs := make([]float64, cells)
		for c := 0; c < cells; c++ {
			lo, hi := out.tailStart[c], out.tailStart[c+1]
			if lo == hi {
				continue
			}
			var ks fsum.Kahan
			mn, mx := math.Inf(1), math.Inf(-1)
			any := false
			for _, id := range out.tailOrder[lo:hi] {
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
				any = true
			}
			if !any {
				continue
			}
			dsums[c], dmins[c], dmaxs[c] = ks.Sum(), mn, mx
		}
		dS := make([][]float64, ix.maxLevel+1)
		dM := make([][]float64, ix.maxLevel+1)
		dX := make([][]float64, ix.maxLevel+1)
		dS[ix.maxLevel], dM[ix.maxLevel], dX[ix.maxLevel] = dsums, dmins, dmaxs
		for l := ix.maxLevel - 1; l >= 0; l-- {
			dS[l], dM[l], dX[l] = reduceAttr(dS[l+1], dM[l+1], dX[l+1], dcounts[l+1], 1<<(l+1))
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
			for c, d := range dcounts[l] {
				if d == 0 {
					continue
				}
				if ix.counts[l][c] == 0 {
					// The cell was empty before the append: the delta partial
					// is the whole cell, no merge rounding at all.
					ms[c], mmn[c], mmx[c] = dS[l][c], dM[l][c], dX[l][c]
					continue
				}
				//lint:ignore floataccum the reference merge: one add per cell per patch
				ms[c] += dS[l][c]
				if dM[l][c] < mmn[c] {
					mmn[c] = dM[l][c]
				}
				if dX[l][c] > mmx[c] {
					mmx[c] = dX[l][c]
				}
			}
			nap.sums[l], nap.mins[l], nap.maxs[l] = ms, mmn, mmx
		}
		out.attrs[name] = nap
	}
	return out, nil
}

// patchChainScene returns n points whose first base points cover only the
// lower-left quarter of [0,1000]² (plus the two corners that pin the grid
// bounds), so appends drawn over the whole square land in cells that were
// empty before; attribute "v" mixes signs and magnitudes, so merge
// rounding shows in the bits, and "w" is positive.
func patchChainScene(n, base int, seed int64) *data.PointSet {
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{Name: "chain"}
	var v, w []float64
	add := func(x, y float64) {
		ps.X = append(ps.X, x)
		ps.Y = append(ps.Y, y)
		v = append(v, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(7)-2)))
		w = append(w, rng.Float64()*60)
	}
	add(0, 0)
	add(1000, 1000)
	for len(ps.X) < n {
		if len(ps.X) < base {
			add(rng.Float64()*500, rng.Float64()*500)
			continue
		}
		switch rng.Intn(3) {
		case 0:
			add(rng.Float64()*1000, rng.Float64()*1000)
		case 1: // a hot cell: many appended points share it
			add(750+rng.Float64()*2, 750+rng.Float64()*2)
		default:
			add(rng.Float64()*500, rng.Float64()*500)
		}
	}
	ps.Attrs = []data.Column{{Name: "v", Values: v}, {Name: "w", Values: w}}
	return ps
}

// copyRange copies points [lo, hi) of ps into arrays of their own, so no
// append in a chain writes into another set's backing array.
func copyRange(ps *data.PointSet, lo, hi int) *data.PointSet {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return ps.Select(idx)
}

// sameBits reports the first cell where a and b differ in their bits.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestPatchAppendMatchesDense: over random chains of appends — single
// points, a few dozen, hundreds, some landing in cells empty before the
// append — the sparse patch gives every level's counts, sums, mins and
// maxs, and the tail CSR, bit for bit as the dense patch does.
func TestPatchAppendMatchesDense(t *testing.T) {
	ctx := context.Background()
	for _, lvl := range []int{1, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			const base, total = 3000, 5500
			full := patchChainScene(total, base, seed*31+int64(lvl))
			rng := rand.New(rand.NewSource(seed))
			cur := copyRange(full, 0, base)
			sparse, err := BuildContext(ctx, cur, lvl)
			if err != nil {
				t.Fatal(err)
			}
			dense := sparse
			for step := 0; cur.Len() < total; step++ {
				k := []int{1, 3, 40, 300}[rng.Intn(4)]
				if cur.Len()+k > total {
					k = total - cur.Len()
				}
				grown, err := cur.AppendCOW(copyRange(full, cur.Len(), cur.Len()+k))
				if err != nil {
					t.Fatal(err)
				}
				if sparse, err = sparse.PatchAppend(ctx, grown); err != nil {
					t.Fatalf("level %d seed %d step %d: %v", lvl, seed, step, err)
				}
				if dense, err = densePatchAppend(ctx, dense, grown); err != nil {
					t.Fatalf("level %d seed %d step %d: dense: %v", lvl, seed, step, err)
				}
				comparePyramids(t, fmt.Sprintf("level %d seed %d step %d", lvl, seed, step), sparse, dense)
				cur = grown
			}
		}
	}
}

// comparePyramids fails unless got and want hold the same tail CSR and the
// same counts and per-attribute sums, mins and maxs at every level, bit
// for bit.
func comparePyramids(t *testing.T, at string, got, want *Index) {
	t.Helper()
	if !slices.Equal(got.tailStart, want.tailStart) || !slices.Equal(got.tailOrder, want.tailOrder) {
		t.Fatalf("%s: tail CSR differs", at)
	}
	for l := range want.counts {
		if !slices.Equal(got.counts[l], want.counts[l]) {
			t.Fatalf("%s: level %d counts differ", at, l)
		}
		for name, wa := range want.attrs {
			ga := got.attrs[name]
			for _, c := range []struct {
				what      string
				got, want []float64
			}{
				{"sums", ga.sums[l], wa.sums[l]},
				{"mins", ga.mins[l], wa.mins[l]},
				{"maxs", ga.maxs[l], wa.maxs[l]},
			} {
				if i, ok := sameBits(c.got, c.want); !ok {
					t.Fatalf("%s: level %d %s.%s differ at cell %d", at, l, name, c.what, i)
				}
			}
		}
	}
}
