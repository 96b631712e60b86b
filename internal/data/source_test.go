package data

import (
	"math"
	"math/rand"
	"testing"
)

func sourceTestSet(n int, sorted bool) *PointSet {
	rng := rand.New(rand.NewSource(int64(n)))
	ps := &PointSet{Name: "src-test"}
	vals := make([]float64, n)
	t := int64(1_600_000_000)
	for i := 0; i < n; i++ {
		ps.X = append(ps.X, rng.Float64()*1000)
		ps.Y = append(ps.Y, rng.Float64()*1000)
		if sorted {
			t += rng.Int63n(10)
		} else {
			t = 1_600_000_000 + rng.Int63n(100_000)
		}
		ps.T = append(ps.T, t)
		vals[i] = rng.Float64()
	}
	ps.AddAttr("v", vals)
	return ps
}

func TestPointSetSource(t *testing.T) {
	n := DefaultBlockSize*2 + 137
	ps := sourceTestSet(n, true)
	src := ps.Source()
	if src.Len() != n || src.Name() != "src-test" {
		t.Fatalf("Len=%d Name=%q", src.Len(), src.Name())
	}
	if !src.HasTime() || !src.TimeSorted() {
		t.Error("time flags wrong for sorted timed set")
	}
	if src.Stamp() != ps.Stamp() {
		t.Error("source stamp differs from set stamp")
	}
	if got, want := src.NumBlocks(), 3; got != want {
		t.Fatalf("NumBlocks = %d, want %d", got, want)
	}
	// Source is cached: same instance on the second call.
	if ps.Source() != src {
		t.Error("Source not cached")
	}
	covered := 0
	for b := 0; b < src.NumBlocks(); b++ {
		lo, hi := src.BlockSpan(b)
		if lo != covered {
			t.Fatalf("block %d starts at %d, want %d", b, lo, covered)
		}
		covered = hi
		blk, err := src.Read(b, AllColumns(src))
		if err != nil {
			t.Fatal(err)
		}
		if blk.Base != lo || blk.Len() != hi-lo {
			t.Fatalf("block %d geometry wrong", b)
		}
		// Zero-copy: block slices alias the set's columns.
		if &blk.X[0] != &ps.X[lo] || &blk.T[0] != &ps.T[lo] || &blk.Attr[0][0] != &ps.Attrs[0].Values[lo] {
			t.Fatalf("block %d is not a zero-copy view", b)
		}
		x, y := blk.XY(lo + 1)
		if x != ps.X[lo+1] || y != ps.Y[lo+1] {
			t.Fatalf("XY(%d) = (%v,%v)", lo+1, x, y)
		}
		z := src.Zone(b)
		want := BuildZone(ps, lo, hi)
		if z.X != want.X || z.Y != want.Y || z.MinT != want.MinT || z.MaxT != want.MaxT || z.Attr[0] != want.Attr[0] {
			t.Fatalf("block %d zone = %+v, want %+v", b, z, want)
		}
	}
	if covered != n {
		t.Fatalf("blocks cover %d points, want %d", covered, n)
	}
}

func TestPointSetSourceUnsorted(t *testing.T) {
	ps := sourceTestSet(100, false)
	if src := ps.Source(); src.TimeSorted() {
		t.Error("TimeSorted = true for unsorted set")
	}
	ps2 := sourceTestSet(50, true)
	ps2.T = nil
	src := ps2.Source()
	if src.HasTime() || src.TimeSorted() {
		t.Error("time flags set for timeless set")
	}
	blk, err := src.Read(0, AllColumns(src))
	if err != nil {
		t.Fatal(err)
	}
	if blk.T != nil {
		t.Error("timeless block has T")
	}
}

func TestZoneColNaN(t *testing.T) {
	z := EmptyZoneCol()
	z.Observe(math.NaN())
	if !z.HasNaN {
		t.Error("HasNaN not set")
	}
	if !math.IsInf(z.Min, 1) || !math.IsInf(z.Max, -1) {
		t.Error("NaN observation moved min/max")
	}
	z.Observe(3)
	z.Observe(-1)
	if z.Min != -1 || z.Max != 3 {
		t.Errorf("zone = %+v", z)
	}
}

func TestSlabAndWalkBlocks(t *testing.T) {
	ps := sourceTestSet(DefaultBlockSize+500, true)
	src := ps.Source()
	sl, ok := src.(Slabber)
	if !ok {
		t.Fatal("setSource does not implement Slabber")
	}
	blk, ok := sl.Slab(100, DefaultBlockSize+50)
	if !ok {
		t.Fatal("Slab refused")
	}
	if blk.Base != 100 || blk.Len() != DefaultBlockSize-50 {
		t.Fatalf("slab geometry: Base=%d Len=%d", blk.Base, blk.Len())
	}
	if &blk.X[0] != &ps.X[100] {
		t.Error("slab is not zero-copy")
	}

	// WalkBlocks over a Slabber: one call spanning the clipped range.
	calls := 0
	err := WalkBlocks(src, 10, 20_000, Columns{}, func(b *Block, s, e int) error {
		calls++
		if s != 10 || e != ps.Len() {
			t.Errorf("walk range [%d,%d)", s, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("Slabber walk made %d calls, want 1", calls)
	}

	// WalkBlocks over a non-Slabber: per-block calls, clipped at the edges.
	plain := plainSource{src}
	var seen []int
	err = WalkBlocks(plain, 100, DefaultBlockSize+50, Columns{}, func(b *Block, s, e int) error {
		seen = append(seen, s, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSeen := []int{100, DefaultBlockSize, DefaultBlockSize, DefaultBlockSize + 50}
	if len(seen) != len(wantSeen) {
		t.Fatalf("walk ranges %v, want %v", seen, wantSeen)
	}
	for i := range seen {
		if seen[i] != wantSeen[i] {
			t.Fatalf("walk ranges %v, want %v", seen, wantSeen)
		}
	}
}

// plainSource hides the Slabber fast path.
type plainSource struct{ PointSource }

func TestAttrIndex(t *testing.T) {
	ps := sourceTestSet(10, true)
	src := ps.Source()
	if got := AttrIndex(src, "v"); got != 0 {
		t.Errorf("AttrIndex(v) = %d", got)
	}
	if got := AttrIndex(src, "missing"); got != -1 {
		t.Errorf("AttrIndex(missing) = %d", got)
	}
}

// TestStampPropagation is the regression net for stamp identity on derived
// sets: Slice and Select views must NOT inherit the parent's stamp (they
// are different data), and SortByTime must discard both the stamp and the
// cached Source, because caches keyed on the old stamp would otherwise
// alias reordered columns.
func TestStampPropagation(t *testing.T) {
	ps := sourceTestSet(1000, false)
	orig := ps.Stamp()
	if orig == 0 {
		t.Fatal("stamp is 0")
	}
	if ps.Stamp() != orig {
		t.Fatal("stamp not stable")
	}

	sl := ps.Slice(10, 500)
	if s := sl.Stamp(); s == orig || s == 0 {
		t.Errorf("Slice stamp %d aliases parent %d", s, orig)
	}
	sel := ps.Select([]int{5, 3, 1})
	if s := sel.Stamp(); s == orig || s == 0 {
		t.Errorf("Select stamp %d aliases parent %d", s, orig)
	}

	srcBefore := ps.Source()
	ps.SortByTime()
	if s := ps.Stamp(); s == orig {
		t.Error("SortByTime kept the old stamp over reordered data")
	}
	srcAfter := ps.Source()
	if srcAfter == srcBefore {
		t.Error("SortByTime kept the cached Source over reordered data")
	}
	if !srcAfter.TimeSorted() {
		t.Error("post-sort source not TimeSorted")
	}
}
