package data

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// appendTestSet returns n points starting at timestamp t0 with two
// attribute columns; withT false leaves the time column nil, and every
// nanEvery-th value of "v" (when nanEvery > 0) is NaN.
func appendTestSet(rng *rand.Rand, n int, t0 int64, withT bool, nanEvery int) *PointSet {
	ps := &PointSet{Name: "grow", X: make([]float64, n), Y: make([]float64, n)}
	v, w := make([]float64, n), make([]float64, n)
	if withT {
		ps.T = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		ps.X[i], ps.Y[i] = rng.Float64()*1000, rng.Float64()*1000
		v[i], w[i] = (rng.Float64()-0.5)*float64(1+rng.Intn(1000)), rng.Float64()
		if nanEvery > 0 && i%nanEvery == 0 {
			v[i] = math.NaN()
		}
		if withT {
			t0 += rng.Int63n(5)
			ps.T[i] = t0
		}
	}
	ps.Attrs = []Column{{Name: "v", Values: v}, {Name: "w", Values: w}}
	return ps
}

// lastT returns the set's last timestamp, or 0 without one.
func lastT(ps *PointSet) int64 {
	if len(ps.T) == 0 {
		return 0
	}
	return ps.T[len(ps.T)-1]
}

// buildZonesOf builds ps's zone maps and returns its source view.
func buildZonesOf(ps *PointSet) *setSource {
	s := ps.Source().(*setSource)
	s.zonesOnce.Do(s.buildZones)
	return s
}

// zoneColEqual compares two zone entries; Min and Max are never NaN.
func zoneColEqual(a, b ZoneCol) bool {
	return a.Min == b.Min && a.Max == b.Max && a.HasNaN == b.HasNaN
}

func zoneEqual(a, b Zone) bool {
	if !zoneColEqual(a.X, b.X) || !zoneColEqual(a.Y, b.Y) || a.MinT != b.MinT || a.MaxT != b.MaxT ||
		len(a.Attr) != len(b.Attr) {
		return false
	}
	for i := range a.Attr {
		if !zoneColEqual(a.Attr[i], b.Attr[i]) {
			return false
		}
	}
	return true
}

// checkGrown fails unless grown's source, published by AppendCOW from a
// parent whose zones were built, holds the zone map a fresh BuildZone
// gives for every block and the time order a full scan finds, and shares
// the parent's zone of every block the parent filled.
func checkGrown(t *testing.T, at string, parent, grown *PointSet) {
	t.Helper()
	s := grown.source.Load()
	if s == nil {
		t.Fatalf("%s: grown set has no source view", at)
	}
	zs := s.zones.Load()
	if zs == nil {
		t.Fatalf("%s: grown set's zones were left lazy though its parent's were built", at)
	}
	if len(*zs) != s.NumBlocks() {
		t.Fatalf("%s: %d zones for %d blocks", at, len(*zs), s.NumBlocks())
	}
	for b := range *zs {
		lo, hi := s.BlockSpan(b)
		if want := BuildZone(grown, lo, hi); !zoneEqual((*zs)[b], want) {
			t.Fatalf("%s: block %d zone %+v, a fresh build gives %+v", at, b, (*zs)[b], want)
		}
	}
	if got, want := s.TimeSorted(), grown.T != nil && timeSorted(grown.T); got != want {
		t.Fatalf("%s: TimeSorted() = %v, a full scan gives %v", at, got, want)
	}
	pz := *parent.source.Load().zones.Load()
	full := parent.Len() / DefaultBlockSize
	for b := 0; b < len(*zs); b++ {
		shared := &(*zs)[b].Attr[0] == &pz[min(b, len(pz)-1)].Attr[0]
		if inherit := b < full; shared != inherit {
			t.Fatalf("%s: block %d of %d (parent fills %d): shares the parent's zone = %v",
				at, b, len(*zs), full, shared)
		}
	}
}

// TestAppendCOWInheritsZones: the source view of an appended set starts
// from its parent's. Across parents that do and do not end on a block
// boundary, tails that cross several blocks, chains of appends, NaN tail
// values and sets without a time column, every zone equals a fresh
// BuildZone, TimeSorted equals a full scan, and only the blocks the tail
// touches are zoned afresh.
func TestAppendCOWInheritsZones(t *testing.T) {
	const B = DefaultBlockSize
	for _, withT := range []bool{true, false} {
		for _, baseLen := range []int{1, 100, B, 3 * B, 3*B + 17} {
			for _, tailLen := range []int{1, 100, B - 17, 2*B + 5} {
				at := fmt.Sprintf("time=%v base=%d tail=%d", withT, baseLen, tailLen)
				rng := rand.New(rand.NewSource(int64(baseLen*31 + tailLen)))
				base := appendTestSet(rng, baseLen, 1_600_000_000, withT, 0)
				buildZonesOf(base)
				tail := appendTestSet(rng, tailLen, lastT(base), withT, 7)
				grown, err := base.AppendCOW(tail)
				if err != nil {
					t.Fatal(err)
				}
				checkGrown(t, at, base, grown)
				if withT && !grown.Source().TimeSorted() {
					t.Fatalf("%s: an in-order append lost TimeSorted", at)
				}
			}
		}
	}

	t.Run("chain", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		cur := appendTestSet(rng, 2*B+300, 1_600_000_000, true, 0)
		buildZonesOf(cur)
		for step := 0; step < 12; step++ {
			tail := appendTestSet(rng, 1+rng.Intn(3*B), lastT(cur), true, 1+rng.Intn(50))
			grown, err := cur.AppendCOW(tail)
			if err != nil {
				t.Fatal(err)
			}
			checkGrown(t, fmt.Sprintf("step %d", step), cur, grown)
			cur = grown
		}
		if !cur.Source().TimeSorted() {
			t.Fatal("a chain of in-order appends lost TimeSorted")
		}
	})

	t.Run("out_of_order", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, tc := range []struct {
			name string
			mk   func(base *PointSet) *PointSet
		}{
			{"tail_precedes_base", func(base *PointSet) *PointSet {
				// Its first timestamp precedes the base's last; its last does not.
				return appendTestSet(rng, 50, lastT(base)-10, true, 0)
			}},
			{"tail_unsorted", func(base *PointSet) *PointSet {
				tail := appendTestSet(rng, 50, lastT(base)+10, true, 0)
				tail.T[10], tail.T[20] = tail.T[20]+1, tail.T[10]
				return tail
			}},
		} {
			base := appendTestSet(rng, B+5, 1_600_000_000, true, 0)
			buildZonesOf(base)
			grown, err := base.AppendCOW(tc.mk(base))
			if err != nil {
				t.Fatal(err)
			}
			checkGrown(t, tc.name, base, grown)
			if grown.Source().TimeSorted() {
				t.Fatalf("%s: TimeSorted() = true", tc.name)
			}
			// An unsorted parent stays unsorted whatever follows it.
			next, err := grown.AppendCOW(appendTestSet(rng, 5, lastT(grown)+1, true, 0))
			if err != nil {
				t.Fatal(err)
			}
			checkGrown(t, tc.name+"+1", grown, next)
		}
	})

	t.Run("lazy_parent", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		// No source view at all: the child gets none either.
		base := appendTestSet(rng, 2*B+9, 1_600_000_000, true, 0)
		grown, err := base.AppendCOW(appendTestSet(rng, 40, lastT(base), true, 0))
		if err != nil {
			t.Fatal(err)
		}
		if grown.source.Load() != nil {
			t.Fatal("a parent without a source view gave its child one")
		}
		// A source view whose zones were never built: the child's stay lazy
		// and build correctly on first use.
		base = appendTestSet(rng, 2*B+9, 1_600_000_000, true, 0)
		if !base.Source().TimeSorted() {
			t.Fatal("base not sorted")
		}
		grown, err = base.AppendCOW(appendTestSet(rng, 40, lastT(base), true, 0))
		if err != nil {
			t.Fatal(err)
		}
		s := grown.source.Load()
		if s == nil || s.zones.Load() != nil {
			t.Fatal("a parent with unbuilt zones did not leave its child's zones lazy")
		}
		if !s.TimeSorted() {
			t.Fatal("lazy child lost TimeSorted")
		}
		for b := 0; b < s.NumBlocks(); b++ {
			lo, hi := s.BlockSpan(b)
			if got, want := s.Zone(b), BuildZone(grown, lo, hi); !zoneEqual(got, want) {
				t.Fatalf("block %d: lazy zone %+v, want %+v", b, got, want)
			}
		}
	})
}

// TestAppendCOWConcurrentZoneReads races readers of a snapshot's zone maps
// and blocks against a chain of appends that publish children sharing the
// snapshot's zones: under -race it proves the inheritance reads nothing a
// reader writes and writes nothing a reader reads, and every reader sees
// the snapshot's zones unchanged.
func TestAppendCOWConcurrentZoneReads(t *testing.T) {
	const B = DefaultBlockSize
	rng := rand.New(rand.NewSource(3))
	root := appendTestSet(rng, 3*B+100, 1_600_000_000, true, 0)
	want := append([]Zone(nil), *buildZonesOf(root).zones.Load()...)

	var latest atomic.Pointer[PointSet]
	latest.Store(root)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				src := root.Source()
				for b := 0; b < src.NumBlocks(); b++ {
					if !zoneEqual(src.Zone(b), want[b]) {
						errs <- fmt.Errorf("root block %d zone changed under an append", b)
						return
					}
					blk, _ := src.Read(b, Columns{})
					_ = blk.X[blk.Len()-1]
				}
				cur := latest.Load().Source()
				last := cur.NumBlocks() - 1
				if z := cur.Zone(last); z.MaxT < want[len(want)-1].MaxT {
					errs <- fmt.Errorf("child's last zone ends at %d, before the root's", z.MaxT)
					return
				}
			}
		}()
	}
	cur := root
	for step := 0; step < 24; step++ {
		grown, err := cur.AppendCOW(appendTestSet(rng, 1+rng.Intn(B), lastT(cur), true, 0))
		if err != nil {
			t.Fatal(err)
		}
		latest.Store(grown)
		cur = grown
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAppendCOWLineage: a tail that starts at or after its parent's last
// timestamp (equal included) keeps the parent's lineage, so a chain of such
// appends shares the root's; a tail with any earlier timestamp starts a
// lineage at its own stamp, and SortByTime gives the set a new one.
func TestAppendCOWLineage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	root := appendTestSet(rng, 50, 100, true, 0)
	if root.Lineage() != root.Stamp() {
		t.Fatalf("root lineage %d, want its stamp %d", root.Lineage(), root.Stamp())
	}
	grow := func(ps *PointSet, t0 int64) *PointSet { // the tail's first timestamp is t0
		t.Helper()
		tail := appendTestSet(rng, 5, t0, true, 0)
		tail.T[0] = t0
		out, err := ps.AppendCOW(tail)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	equal := grow(root, lastT(root))
	later := grow(equal, lastT(equal)+10)
	for _, ps := range []*PointSet{equal, later} {
		if ps.Lineage() != root.Lineage() || ps.Stamp() == root.Stamp() {
			t.Fatalf("in-order child: lineage %d stamp %d, want lineage %d and a stamp of its own",
				ps.Lineage(), ps.Stamp(), root.Lineage())
		}
	}

	early := grow(later, lastT(later)-1)
	if early.Lineage() != early.Stamp() || early.Lineage() == root.Lineage() {
		t.Fatalf("out-of-order child: lineage %d, want its own stamp %d", early.Lineage(), early.Stamp())
	}
	if child := grow(early, lastT(early)); child.Lineage() != early.Lineage() {
		t.Fatalf("in-order child of a new lineage: lineage %d, want %d", child.Lineage(), early.Lineage())
	}

	untimed := appendTestSet(rng, 10, 0, false, 0)
	grownUntimed, err := untimed.AppendCOW(appendTestSet(rng, 3, 0, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	if grownUntimed.Lineage() != untimed.Lineage() {
		t.Fatal("an append to a set without a time column left its lineage")
	}

	before := later.Lineage()
	later.SortByTime()
	if later.Lineage() == before || later.Lineage() != later.Stamp() {
		t.Fatalf("SortByTime kept lineage %d (stamp %d)", later.Lineage(), later.Stamp())
	}
}
