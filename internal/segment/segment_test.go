package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
)

// randomSet builds a reproducible point set with n points, a time column
// (sorted when sorted is true), and two attributes.
func randomSet(rng *rand.Rand, n int, sorted bool) *data.PointSet {
	ps := &data.PointSet{Name: "seg-test"}
	ps.X = make([]float64, n)
	ps.Y = make([]float64, n)
	ps.T = make([]int64, n)
	fare := make([]float64, n)
	tip := make([]float64, n)
	t := int64(1_500_000_000)
	for i := 0; i < n; i++ {
		ps.X[i] = rng.Float64() * 1e6
		ps.Y[i] = rng.Float64() * 1e6
		if sorted {
			t += rng.Int63n(30)
		} else {
			t = 1_500_000_000 + rng.Int63n(1_000_000)
		}
		ps.T[i] = t
		fare[i] = rng.Float64() * 60
		tip[i] = rng.Float64() * 12
	}
	ps.AddAttr("fare", fare)
	ps.AddAttr("tip", tip)
	return ps
}

// writeTemp writes ps to a temp segment file and opens it.
func writeTemp(t *testing.T, ps *data.PointSet, wopts []WriterOption, sopts []StoreOption) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.useg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, ps, wopts...); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, sopts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// assertRoundTrip checks that st reproduces ps bit-exactly.
func assertRoundTrip(t *testing.T, ps *data.PointSet, st *Store) {
	t.Helper()
	if st.Len() != ps.Len() {
		t.Fatalf("Len = %d, want %d", st.Len(), ps.Len())
	}
	if st.Name() != ps.Name {
		t.Errorf("Name = %q, want %q", st.Name(), ps.Name)
	}
	if got, want := st.HasTime(), ps.T != nil; got != want {
		t.Errorf("HasTime = %v, want %v", got, want)
	}
	names := st.AttrNames()
	wantNames := ps.AttrNames()
	if strings.Join(names, ",") != strings.Join(wantNames, ",") {
		t.Errorf("AttrNames = %v, want %v", names, wantNames)
	}
	for b := 0; b < st.NumBlocks(); b++ {
		blk, err := st.Block(b)
		if err != nil {
			t.Fatalf("Block(%d): %v", b, err)
		}
		lo, hi := st.BlockSpan(b)
		if blk.Base != lo || blk.Len() != hi-lo {
			t.Fatalf("block %d: Base=%d Len=%d, want Base=%d Len=%d", b, blk.Base, blk.Len(), lo, hi-lo)
		}
		for i := lo; i < hi; i++ {
			j := i - lo
			if math.Float64bits(blk.X[j]) != math.Float64bits(ps.X[i]) ||
				math.Float64bits(blk.Y[j]) != math.Float64bits(ps.Y[i]) {
				t.Fatalf("point %d: coords (%v,%v), want (%v,%v)", i, blk.X[j], blk.Y[j], ps.X[i], ps.Y[i])
			}
			if ps.T != nil && blk.T[j] != ps.T[i] {
				t.Fatalf("point %d: T=%d, want %d", i, blk.T[j], ps.T[i])
			}
			for a := range ps.Attrs {
				if math.Float64bits(blk.Attr[a][j]) != math.Float64bits(ps.Attrs[a].Values[i]) {
					t.Fatalf("point %d attr %d: %v, want %v", i, a, blk.Attr[a][j], ps.Attrs[a].Values[i])
				}
			}
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := randomSet(rng, 20_000, true)
	st := writeTemp(t, ps, []WriterOption{WithBlockSize(1024)}, nil)
	if !st.TimeSorted() {
		t.Error("TimeSorted = false for sorted input")
	}
	if want := (20_000 + 1023) / 1024; st.NumBlocks() != want {
		t.Errorf("NumBlocks = %d, want %d", st.NumBlocks(), want)
	}
	assertRoundTrip(t, ps, st)
}

func TestSegmentRoundTripUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := randomSet(rng, 5_000, false)
	st := writeTemp(t, ps, []WriterOption{WithBlockSize(512)}, nil)
	if st.TimeSorted() {
		t.Error("TimeSorted = true for unsorted input")
	}
	assertRoundTrip(t, ps, st)
}

func TestSegmentRoundTripNoTime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := randomSet(rng, 3_000, true)
	ps.T = nil
	st := writeTemp(t, ps, []WriterOption{WithBlockSize(700)}, nil)
	if st.HasTime() || st.TimeSorted() {
		t.Error("time flags set on timeless segment")
	}
	assertRoundTrip(t, ps, st)
}

// TestSegmentSpecialFloats proves the raw encoding is bit-exact for the
// values float formats mangle: NaN payloads, ±0, ±Inf, and denormals.
func TestSegmentSpecialFloats(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1),
		math.NaN(),
		math.Float64frombits(0x7ff8_0000_0000_0001), // NaN with payload
		math.Float64frombits(0xfff8_dead_beef_0000), // negative NaN payload
		math.Float64frombits(1),                     // smallest denormal
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest denormal
		math.MaxFloat64, -math.MaxFloat64,
	}
	n := len(specials) * 3
	ps := &data.PointSet{Name: "specials"}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		v := specials[i%len(specials)]
		ps.X = append(ps.X, v)
		ps.Y = append(ps.Y, -v)
		ps.T = append(ps.T, int64(i))
		vals[i] = v
	}
	ps.AddAttr("v", vals)
	st := writeTemp(t, ps, []WriterOption{WithBlockSize(7)}, nil)
	assertRoundTrip(t, ps, st)
	// A block whose X values include NaN must carry the marker.
	sawNaN := false
	for b := 0; b < st.NumBlocks(); b++ {
		if st.Zone(b).X.HasNaN {
			sawNaN = true
		}
	}
	if !sawNaN {
		t.Error("no zone recorded HasNaN despite NaN coordinates")
	}
}

func TestSegmentZones(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := randomSet(rng, 10_000, true)
	st := writeTemp(t, ps, []WriterOption{WithBlockSize(1000)}, nil)
	for b := 0; b < st.NumBlocks(); b++ {
		lo, hi := st.BlockSpan(b)
		want := data.BuildZone(ps, lo, hi)
		got := st.Zone(b)
		if got.X != want.X || got.Y != want.Y || got.MinT != want.MinT || got.MaxT != want.MaxT {
			t.Fatalf("block %d zone = %+v, want %+v", b, got, want)
		}
		for a := range want.Attr {
			if got.Attr[a] != want.Attr[a] {
				t.Fatalf("block %d attr %d zone = %+v, want %+v", b, a, got.Attr[a], want.Attr[a])
			}
		}
	}
}

func TestSegmentMultiBatchAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	full := randomSet(rng, 9_000, true)
	path := filepath.Join(t.TempDir(), "seg.useg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, WithBlockSize(1024))
	// Append in uneven batches; block boundaries must not align with them.
	for lo := 0; lo < full.Len(); {
		hi := lo + 700
		if hi > full.Len() {
			hi = full.Len()
		}
		if err := w.Append(full.Slice(lo, hi)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		lo = hi
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f.Close()
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	assertRoundTrip(t, full, st)
	if !st.TimeSorted() {
		t.Error("TimeSorted lost across batches")
	}
}

func TestSegmentSchemaMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomSet(rng, 100, true)
	b := randomSet(rng, 100, true)
	b.Attrs = b.Attrs[:1]
	w := NewWriter(new(bytes.Buffer))
	if err := w.Append(a); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(b); err == nil {
		t.Error("Append accepted mismatched attribute schema")
	}
	w2 := NewWriter(new(bytes.Buffer))
	if err := w2.Append(a); err != nil {
		t.Fatal(err)
	}
	c := randomSet(rng, 10, true)
	c.T = nil
	if err := w2.Append(c); err == nil {
		t.Error("Append accepted mismatched time presence")
	}
}

// randomColumns draws a random projection over nattrs attributes.
func randomColumns(rng *rand.Rand, nattrs int) data.Columns {
	cols := data.Columns{T: rng.Intn(2) == 0}
	for a := 0; a < nattrs; a++ {
		if rng.Intn(2) == 0 {
			cols.Need(a)
		}
	}
	return cols
}

// checkProjected verifies that blk is block b of ps read with cols: X and Y
// always, T and each listed attribute bit-exact, every other column nil.
func checkProjected(ps *data.PointSet, st *Store, b int, blk *data.Block, cols data.Columns) error {
	lo, hi := st.BlockSpan(b)
	if blk.Base != lo || blk.Len() != hi-lo {
		return fmt.Errorf("block %d: Base=%d Len=%d, want Base=%d Len=%d", b, blk.Base, blk.Len(), lo, hi-lo)
	}
	if cols.T && ps.T != nil {
		if len(blk.T) != hi-lo {
			return fmt.Errorf("block %d: %d timestamps, want %d", b, len(blk.T), hi-lo)
		}
	} else if blk.T != nil {
		return fmt.Errorf("block %d: undeclared T came back", b)
	}
	want := make([]bool, len(ps.Attrs))
	for _, a := range cols.Attrs {
		want[a] = true
	}
	for a := range ps.Attrs {
		if !want[a] && blk.Attr[a] != nil {
			return fmt.Errorf("block %d: undeclared attribute %d came back", b, a)
		}
	}
	for i := lo; i < hi; i++ {
		j := i - lo
		if math.Float64bits(blk.X[j]) != math.Float64bits(ps.X[i]) ||
			math.Float64bits(blk.Y[j]) != math.Float64bits(ps.Y[i]) {
			return fmt.Errorf("point %d: coords differ", i)
		}
		if blk.T != nil && blk.T[j] != ps.T[i] {
			return fmt.Errorf("point %d: T=%d, want %d", i, blk.T[j], ps.T[i])
		}
		for a := range ps.Attrs {
			if want[a] && math.Float64bits(blk.Attr[a][j]) != math.Float64bits(ps.Attrs[a].Values[i]) {
				return fmt.Errorf("point %d attr %d differs", i, a)
			}
		}
	}
	return nil
}

// TestSegmentProjectedReads: on sorted, unsorted and timeless sets, every
// column subset reads bit-identical to the full read with undeclared
// columns nil; the cache keeps one entry per (block, column) under its byte
// budget, and re-reads after eviction are still exact.
func TestSegmentProjectedReads(t *testing.T) {
	for _, tc := range []struct {
		name           string
		sorted, noTime bool
	}{{"sorted", true, false}, {"unsorted", false, false}, {"timeless", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			ps := randomSet(rand.New(rand.NewSource(12)), 4_000, tc.sorted)
			if tc.noTime {
				ps.T = nil
			}
			const bs = 500
			colBytes := int64(bs * 8)
			// Room for 7 columns: fewer than one pass over the subsets needs.
			st := writeTemp(t, ps, []WriterOption{WithBlockSize(bs)},
				[]StoreOption{WithCacheBytes(7 * colBytes)})
			var subsets []data.Columns
			for _, withT := range []bool{false, true} {
				for mask := 0; mask < 1<<len(ps.Attrs); mask++ {
					cols := data.Columns{T: withT}
					for a := range ps.Attrs {
						if mask&(1<<a) != 0 {
							cols.Need(a)
						}
					}
					subsets = append(subsets, cols)
				}
			}
			for pass := 0; pass < 2; pass++ { // the second pass re-reads evicted columns
				for b := 0; b < st.NumBlocks(); b++ {
					// Both the full read and every projection must match
					// the source set, hence each other.
					full, err := st.Block(b)
					if err != nil {
						t.Fatal(err)
					}
					if err := checkProjected(ps, st, b, full, data.AllColumns(st)); err != nil {
						t.Fatalf("pass %d full read: %v", pass, err)
					}
					for _, cols := range subsets {
						blk, err := st.Read(b, cols)
						if err != nil {
							t.Fatalf("Read(%d, %+v): %v", b, cols, err)
						}
						if err := checkProjected(ps, st, b, blk, cols); err != nil {
							t.Fatalf("pass %d %+v: %v", pass, cols, err)
						}
					}
					if stats := st.CacheStats(); stats.Bytes > stats.Capacity || stats.Entries > 7 ||
						stats.Bytes != int64(stats.Entries)*colBytes {
						t.Fatalf("cache %+v: want ≤ 7 entries of %d bytes within capacity", stats, colBytes)
					}
				}
			}
			if stats := st.CacheStats(); stats.Evictions == 0 || stats.Hits == 0 {
				t.Errorf("cache %+v: want both hits and evictions", stats)
			}
		})
	}
}

// TestSegmentCacheEviction drives a store whose cache holds only a few
// columns and checks the byte bound, the per-column counters, and that
// evicted columns read again correctly — the out-of-core contract in
// miniature.
func TestSegmentCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := randomSet(rng, 16_384, true)
	// Each column of a block: 1024 points * 8B = 8 KiB; a block has 5
	// (X, Y, T, fare, tip). The cap holds 16 columns, about 3 blocks.
	const perBlock = 5
	st := writeTemp(t, ps, []WriterOption{WithBlockSize(1024)},
		[]StoreOption{WithCacheBytes(128 << 10)})
	assertRoundTrip(t, ps, st) // sequential: misses only, evictions happen
	stats := st.CacheStats()
	if want := uint64(st.NumBlocks() * perBlock); stats.Misses != want {
		t.Errorf("misses = %d, want %d", stats.Misses, want)
	}
	if stats.Evictions == 0 {
		t.Error("no evictions despite cache smaller than data")
	}
	if stats.Bytes > stats.Capacity || stats.Entries != 16 {
		t.Errorf("cache holds %d columns / %d bytes, want 16 within %d", stats.Entries, stats.Bytes, stats.Capacity)
	}
	// Re-reading the most recent block hits every column; an old one
	// misses again.
	last := st.NumBlocks() - 1
	if _, err := st.Block(last); err != nil {
		t.Fatal(err)
	}
	if got := st.CacheStats(); got.Hits != stats.Hits+perBlock {
		t.Errorf("hits = %d, want %d", got.Hits, stats.Hits+perBlock)
	}
	blk, err := st.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProjected(ps, st, 0, blk, data.AllColumns(st)); err != nil {
		t.Errorf("re-read evicted block: %v", err)
	}
	// A projection misses only the columns it asks for.
	before := st.CacheStats()
	if _, err := st.Read(1, data.Columns{}); err != nil {
		t.Fatal(err)
	}
	if got := st.CacheStats(); got.Misses != before.Misses+2 {
		t.Errorf("X/Y read of an evicted block missed %d columns, want 2", got.Misses-before.Misses)
	}
}

// TestSegmentOutOfCore opens a store whose cache is smaller than a single
// column — every access reads the file — and checks full correctness.
func TestSegmentOutOfCore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := randomSet(rng, 8_000, true)
	for _, budget := range []int64{0, 1} {
		st := writeTemp(t, ps, []WriterOption{WithBlockSize(1024)},
			[]StoreOption{WithCacheBytes(budget)})
		assertRoundTrip(t, ps, st)
		stats := st.CacheStats()
		if stats.Entries != 0 || stats.Bytes != 0 {
			t.Errorf("cache retained %d columns / %d bytes with %d-byte budget", stats.Entries, stats.Bytes, budget)
		}
		if stats.Hits != 0 || stats.Misses != uint64(st.NumBlocks()*5) {
			t.Errorf("hits/misses = %d/%d, want 0/%d", stats.Hits, stats.Misses, st.NumBlocks()*5)
		}
	}
}

// TestSegmentConcurrentReaders: goroutines reading random blocks under
// random projections through one small cache each get exact columns — the
// store's lock covers only the cache, so reads and racing misses overlap.
func TestSegmentConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ps := randomSet(rng, 8_192, true)
	st := writeTemp(t, ps, []WriterOption{WithBlockSize(512)},
		[]StoreOption{WithCacheBytes(64 << 10)})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				b := r.Intn(st.NumBlocks())
				cols := randomColumns(r, len(ps.Attrs))
				blk, err := st.Read(b, cols)
				if err == nil {
					err = checkProjected(ps, st, b, blk, cols)
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if stats := st.CacheStats(); stats.Bytes > stats.Capacity {
		t.Errorf("cache bytes %d exceed capacity %d", stats.Bytes, stats.Capacity)
	}
}

func TestSegmentCorruptInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := randomSet(rng, 1_000, true)
	var buf bytes.Buffer
	if err := Write(&buf, ps, WithBlockSize(256)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	tocOff := int(binary.LittleEndian.Uint64(good[len(good)-12:]))
	entry := 12 + zoneSize(true, len(ps.Attrs))
	// patched returns a copy of good with v written little-endian at off.
	patched := func(off int, v uint64, width int) []byte {
		b := append([]byte(nil), good...)
		for i := 0; i < width; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
		return b
	}
	secondBlock := binary.LittleEndian.Uint64(good[tocOff+5+entry:])
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:8],
		"bad-head":    append([]byte("XXXX"), good[4:]...),
		"bad-tail":    append(append([]byte(nil), good[:len(good)-4]...), 'X', 'X', 'X', 'X'),
		"toc-cut":     good[:len(good)-40],
		"bad-version": append(append([]byte(nil), good[:4]...), append([]byte{99, 0, 0, 0}, good[8:]...)...),
		// A TOC offset inside the fixed header.
		"toc-in-header": patched(len(good)-12, 5, 8),
		// The first block starting past the second one.
		"block-past-next": patched(tocOff+5, secondBlock+16, 8),
		// A block count no TOC could hold.
		"huge-block-count": patched(tocOff, 0xFFFF_FFFF, 4),
		// A float column whose encoding byte is not raw float64: the column
		// directory pass rejects it at Open, before any read.
		"bad-encoding": patched(int(binary.LittleEndian.Uint64(good[tocOff+5:])), 7, 1),
	}
	for name, b := range cases {
		if _, err := OpenReaderAt(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Errorf("%s: Open succeeded on corrupt input", name)
		}
	}
}

// FuzzSegmentOpen overwrites bytes of a valid segment and truncates it.
// Open, every full read and every projected read must then either error or
// return columns that agree bit for bit — a projection is the full read's
// columns, and a file the patch left intact reads back the written set —
// and never panic; Open and a full pass may allocate only in proportion to
// the file size.
func FuzzSegmentOpen(f *testing.F) {
	f.Add(int64(1), []byte{}, uint16(0), false)
	f.Add(int64(2), []byte{0, 0, 0xff}, uint16(3), true)
	f.Add(int64(3), []byte{0x10, 0x00, 0x07, 0x40, 0x01, 0x00}, uint16(0), false)
	f.Fuzz(func(t *testing.T, seed int64, patch []byte, cut uint16, noTime bool) {
		rng := rand.New(rand.NewSource(seed))
		ps := randomSet(rng, 1+rng.Intn(400), rng.Intn(2) == 0)
		if noTime {
			ps.T = nil
		}
		var buf bytes.Buffer
		if err := Write(&buf, ps, WithBlockSize(1+rng.Intn(128))); err != nil {
			t.Fatalf("Write: %v", err)
		}
		file := buf.Bytes()
		orig := slices.Clone(file)
		// patch is (u16 position, byte) triples; positions wrap the file.
		for i := 0; i+3 <= len(patch); i += 3 {
			file[int(binary.LittleEndian.Uint16(patch[i:]))%len(file)] = patch[i+2]
		}
		file = file[:len(file)-int(cut)%len(file)]
		intact := bytes.Equal(file, orig)
		size := int64(len(file))
		const slack = 1 << 20
		allocated := func(fn func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}

		var st *Store
		var err error
		if n := allocated(func() {
			st, err = OpenReaderAt(bytes.NewReader(file), size, WithCacheBytes(int64(rng.Intn(8192))))
		}); n > uint64(16*size+slack) {
			t.Fatalf("Open of a %d-byte file allocated %d bytes", size, n)
		}
		if err != nil {
			if intact {
				t.Fatalf("Open of an intact file: %v", err)
			}
			return
		}
		for b := 0; b < st.NumBlocks(); b++ {
			var full *data.Block
			if n := allocated(func() { full, err = st.Block(b) }); n > uint64(16*size+slack) {
				t.Fatalf("full read of block %d of a %d-byte file allocated %d bytes", b, size, n)
			}
			if intact && err == nil {
				err = checkProjected(ps, st, b, full, data.AllColumns(st))
			}
			if err != nil {
				if intact {
					t.Fatalf("intact file: %v", err)
				}
				continue
			}
			lo, hi := st.BlockSpan(b)
			if full.Base != lo || full.Len() != hi-lo || len(full.Y) != hi-lo ||
				(st.HasTime() && len(full.T) != hi-lo) || (!st.HasTime() && full.T != nil) {
				t.Fatalf("block %d: full read has wrong geometry", b)
			}
			for k := 0; k < 4; k++ {
				cols := randomColumns(rng, len(st.AttrNames()))
				blk, err := st.Read(b, cols)
				if err != nil {
					continue
				}
				if !sameBits(blk.X, full.X) || !sameBits(blk.Y, full.Y) {
					t.Fatalf("block %d: projected coordinates differ from the full read", b)
				}
				if cols.T && !slices.Equal(blk.T, full.T) || !cols.T && blk.T != nil {
					t.Fatalf("block %d %+v: projected T differs from the full read", b, cols)
				}
				for a := range st.AttrNames() {
					if slices.Contains(cols.Attrs, a) != (blk.Attr[a] != nil) ||
						blk.Attr[a] != nil && !sameBits(blk.Attr[a], full.Attr[a]) {
						t.Fatalf("block %d %+v: projected attribute %d differs from the full read", b, cols, a)
					}
				}
			}
		}
	})
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzSegmentRoundTrip fuzzes the per-point encoding path, biasing toward
// special float values (NaN payloads, ±0, denormals) and irregular
// timestamps, asserting a bit-exact round trip.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(7), false)
	f.Add(int64(2), uint16(1), uint8(1), true)
	f.Add(int64(3), uint16(300), uint8(64), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, blockSize uint8, noTime bool) {
		if n == 0 {
			return
		}
		bs := int(blockSize)
		if bs == 0 {
			bs = 1
		}
		rng := rand.New(rand.NewSource(seed))
		weird := []float64{
			math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001),
			math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
			math.Float64frombits(1), math.Float64frombits(rng.Uint64()),
		}
		pick := func() float64 {
			if rng.Intn(3) == 0 {
				return weird[rng.Intn(len(weird))]
			}
			return rng.NormFloat64() * 1e6
		}
		ps := &data.PointSet{Name: "fuzz"}
		vals := make([]float64, n)
		for i := 0; i < int(n); i++ {
			ps.X = append(ps.X, pick())
			ps.Y = append(ps.Y, pick())
			if !noTime {
				ps.T = append(ps.T, rng.Int63()-rng.Int63())
			}
			vals[i] = pick()
		}
		ps.AddAttr("v", vals)
		var buf bytes.Buffer
		if err := Write(&buf, ps, WithBlockSize(bs)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		st, err := OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()),
			WithCacheBytes(int64(rng.Intn(4096))))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for b := 0; b < st.NumBlocks(); b++ {
			blk, err := st.Block(b)
			if err != nil {
				t.Fatalf("Block(%d): %v", b, err)
			}
			lo, hi := st.BlockSpan(b)
			for i := lo; i < hi; i++ {
				j := i - lo
				if math.Float64bits(blk.X[j]) != math.Float64bits(ps.X[i]) ||
					math.Float64bits(blk.Y[j]) != math.Float64bits(ps.Y[i]) ||
					math.Float64bits(blk.Attr[0][j]) != math.Float64bits(vals[i]) {
					t.Fatalf("point %d differs after round trip", i)
				}
				if !noTime && blk.T[j] != ps.T[i] {
					t.Fatalf("point %d: T=%d, want %d", i, blk.T[j], ps.T[i])
				}
			}
		}
	})
}
