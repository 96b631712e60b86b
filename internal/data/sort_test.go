package data

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stableSortedCopy is the reference time sort: the permutation
// sort.SliceStable gives, applied through Select.
func stableSortedCopy(ps *PointSet) *PointSet {
	idx := make([]int, ps.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ps.T[idx[a]] < ps.T[idx[b]] })
	return ps.Select(idx)
}

// timeSet builds a point set over timestamps ts whose X, Y and two
// attribute columns all record each point's original position, so any
// row that leaves its point shows.
func timeSet(ts []int64) *PointSet {
	n := len(ts)
	ps := &PointSet{Name: "sort", X: make([]float64, n), Y: make([]float64, n), T: ts}
	a, b := make([]float64, n), make([]float64, n)
	for i := range ts {
		ps.X[i], ps.Y[i] = float64(i), -float64(i)
		a[i], b[i] = float64(i)+0.5, float64(n-i)
	}
	ps.Attrs = []Column{{Name: "a", Values: a}, {Name: "b", Values: b}}
	return ps
}

// checkSortMatches sorts ps by time and requires every column to equal the
// reference stable sort's, and the caller's old column slices untouched.
func checkSortMatches(t *testing.T, ps *PointSet, label string) {
	t.Helper()
	want := stableSortedCopy(ps)
	oldX, oldT := slices.Clone(ps.X), slices.Clone(ps.T)
	heldX, heldT := ps.X, ps.T
	ps.SortByTime()
	if !slices.Equal(ps.T, want.T) || !slices.Equal(ps.X, want.X) || !slices.Equal(ps.Y, want.Y) {
		t.Fatalf("%s: T/X/Y differ from the stable sort", label)
	}
	if len(ps.Attrs) != len(want.Attrs) {
		t.Fatalf("%s: %d attrs, want %d", label, len(ps.Attrs), len(want.Attrs))
	}
	for k, c := range ps.Attrs {
		if c.Name != want.Attrs[k].Name || !slices.Equal(c.Values, want.Attrs[k].Values) {
			t.Fatalf("%s: attr %q differs from the stable sort", label, c.Name)
		}
	}
	if !slices.Equal(heldX, oldX) || !slices.Equal(heldT, oldT) {
		t.Fatalf("%s: sort wrote through a column slice the caller held", label)
	}
}

func TestSortByTimeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gen := func(n int, f func() int64) []int64 {
		ts := make([]int64, n)
		for i := range ts {
			ts[i] = f()
		}
		return ts
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
	cases := map[string][]int64{
		"empty":      {},
		"one":        {42},
		"heavy ties": gen(5000, func() int64 { return rng.Int63n(7) }),
		"negative":   gen(3000, func() int64 { return rng.Int63n(2_000_000) - 1_000_000 }),
		"extremes":   gen(2000, func() int64 { return extremes[rng.Intn(len(extremes))] }),
		"high bytes": gen(2000, func() int64 { return rng.Int63n(50) << 40 }),
		"month":      gen(4000, func() int64 { return 1230768000 + rng.Int63n(31*86400) }),
		"sorted":     gen(1000, func() int64 { return 0 }),
	}
	for i := range cases["sorted"] {
		cases["sorted"][i] = int64(i / 3)
	}
	for label, ts := range cases {
		checkSortMatches(t, timeSet(ts), label)
	}

	// Sorting discards the stamp, the cached Source and the bounds memo.
	ps := timeSet([]int64{3, 1, 2})
	ps.Stamp()
	ps.Source()
	ps.Bounds()
	ps.SortByTime()
	if ps.stamp.Load() != 0 || ps.source.Load() != nil || ps.bounds.Load() != nil {
		t.Error("SortByTime kept the stamp, Source or bounds memo of the unsorted data")
	}

	// No time column: nothing moves.
	noT := &PointSet{X: []float64{2, 1}, Y: []float64{4, 3}}
	noT.SortByTime()
	if noT.T != nil || noT.X[0] != 2 || noT.Y[1] != 3 {
		t.Errorf("SortByTime without a time column = %+v", noT)
	}
}

// FuzzSortByTime: the radix sort gives the stable sort's permutation for
// any timestamps. Each 8 bytes of input are one timestamp; when mask is
// non-zero the timestamps are ANDed with it, which makes ties and shared
// bytes common.
func FuzzSortByTime(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0, 0, 0, 0, 0, 0, 0x80}, uint64(0))
	f.Add(make([]byte, 64), uint64(0))
	f.Add([]byte("a month of taxi timestamps, more or less"), uint64(0x0f0f))
	f.Fuzz(func(t *testing.T, in []byte, mask uint64) {
		ts := make([]int64, len(in)/8)
		for i := range ts {
			v := binary.LittleEndian.Uint64(in[8*i:])
			if mask != 0 {
				v &= mask
			}
			ts[i] = int64(v)
		}
		checkSortMatches(t, timeSet(ts), "fuzz")
	})
}
