// Package data provides the spatio-temporal data substrate: a columnar
// point-set container, calibrated synthetic generators standing in for the
// NYC taxi / 311 / photo data sets the paper explores, polygonal region
// generators standing in for NYC's neighborhood and census-tract layers,
// and GeoJSON/CSV codecs.
package data

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/geom"
)

// Column is a named float64 attribute column.
type Column struct {
	Name   string
	Values []float64
}

// PointSet is a columnar set of spatio-temporal points
// P(loc, t, a1, a2, ...): parallel slices of mercator coordinates, unix
// timestamps, and attribute columns. The layout matches how Raster Join
// streams vertex buffers to the GPU.
type PointSet struct {
	Name string
	// X, Y are Web-Mercator meters.
	X, Y []float64
	// T is seconds since the Unix epoch.
	T []int64
	// Attrs are the attribute columns, all of length Len().
	Attrs []Column

	stamp   atomic.Uint64
	lineage atomic.Uint64
	source  atomic.Pointer[setSource]
	bounds  atomic.Pointer[geom.BBox]
}

// pointSetStamps issues process-unique PointSet identities; 0 is reserved
// for "not yet stamped".
var pointSetStamps atomic.Uint64

// Stamp returns a process-unique identity for this point set, assigned
// lazily on first call from one increasing counter. Caches keyed by point
// data (the geoblocks hierarchy, slab partials) use it instead of the Name
// — names can be reused across re-registered data sets. AppendCOW stamps
// the parent before the child, so along an append lineage a newer snapshot
// always carries the larger stamp; the geoblocks store keeps the newest
// one per name on that rule. Callers must treat the columns as immutable
// once the set is stamped; Bounds memoises its fold on that promise.
func (ps *PointSet) Stamp() uint64 {
	if s := ps.stamp.Load(); s != 0 {
		return s
	}
	s := pointSetStamps.Add(1)
	if ps.stamp.CompareAndSwap(0, s) {
		return s
	}
	return ps.stamp.Load()
}

// Lineage returns the stamp of the root of ps's AppendCOW chain: the set
// itself, unless AppendCOW grew it in time order from a parent, in which
// case the parent's lineage. Along one lineage every tail starts at or
// after its parent's last timestamp (its horizon), so a time slab that ends
// by a snapshot's horizon holds the same points, in the same order, on
// every later snapshot of the lineage; the slab fold keys such slabs by
// lineage instead of stamp.
func (ps *PointSet) Lineage() uint64 {
	if l := ps.lineage.Load(); l != 0 {
		return l
	}
	return ps.Stamp()
}

// Len returns the number of points.
func (ps *PointSet) Len() int { return len(ps.X) }

// Validate checks that all columns have equal length.
func (ps *PointSet) Validate() error {
	n := len(ps.X)
	if len(ps.Y) != n {
		return fmt.Errorf("data: %q: Y has %d values, want %d", ps.Name, len(ps.Y), n)
	}
	if ps.T != nil && len(ps.T) != n {
		return fmt.Errorf("data: %q: T has %d values, want %d", ps.Name, len(ps.T), n)
	}
	for _, c := range ps.Attrs {
		if len(c.Values) != n {
			return fmt.Errorf("data: %q: attr %q has %d values, want %d",
				ps.Name, c.Name, len(c.Values), n)
		}
	}
	return nil
}

// Attr returns the named attribute column, or nil when absent.
func (ps *PointSet) Attr(name string) []float64 {
	for _, c := range ps.Attrs {
		if c.Name == name {
			return c.Values
		}
	}
	return nil
}

// AttrNames returns the attribute column names in storage order.
func (ps *PointSet) AttrNames() []string {
	names := make([]string, len(ps.Attrs))
	for i, c := range ps.Attrs {
		names[i] = c.Name
	}
	return names
}

// AddAttr appends an attribute column. It panics if the length mismatches,
// as that is a programming error.
func (ps *PointSet) AddAttr(name string, values []float64) {
	if len(values) != ps.Len() {
		panic(fmt.Sprintf("data: attr %q has %d values, point set has %d",
			name, len(values), ps.Len()))
	}
	ps.Attrs = append(ps.Attrs, Column{Name: name, Values: values})
}

// Bounds returns the bounding box of all points. A stamped set's columns
// are immutable, so its first call folds the points and every later call
// returns that box; an unstamped set folds afresh on every call, following
// in-place edits.
func (ps *PointSet) Bounds() geom.BBox {
	if ps.stamp.Load() == 0 {
		return ps.foldBounds()
	}
	if b := ps.bounds.Load(); b != nil {
		return *b
	}
	b := ps.foldBounds()
	ps.bounds.CompareAndSwap(nil, &b)
	return b
}

func (ps *PointSet) foldBounds() geom.BBox {
	b := geom.EmptyBBox()
	for i := range ps.X {
		b = b.ExtendPoint(geom.Point{X: ps.X[i], Y: ps.Y[i]})
	}
	return b
}

// TimeRange returns the min and max timestamps, or ok=false when the set is
// empty or has no time column.
func (ps *PointSet) TimeRange() (min, max int64, ok bool) {
	if len(ps.T) == 0 {
		return 0, 0, false
	}
	min, max = ps.T[0], ps.T[0]
	for _, v := range ps.T[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, true
}

// Select returns a new PointSet containing the points at the given indices.
func (ps *PointSet) Select(idx []int) *PointSet {
	out := &PointSet{
		Name: ps.Name,
		X:    make([]float64, len(idx)),
		Y:    make([]float64, len(idx)),
	}
	if ps.T != nil {
		out.T = make([]int64, len(idx))
	}
	for _, c := range ps.Attrs {
		out.Attrs = append(out.Attrs, Column{Name: c.Name, Values: make([]float64, len(idx))})
	}
	for j, i := range idx {
		out.X[j] = ps.X[i]
		out.Y[j] = ps.Y[i]
		if ps.T != nil {
			out.T[j] = ps.T[i]
		}
		for k := range ps.Attrs {
			out.Attrs[k].Values[j] = ps.Attrs[k].Values[i]
		}
	}
	return out
}

// SortByTime reorders the points in ascending timestamp order, so
// time-filtered scans can binary-search their window. The sort is stable:
// points with equal timestamps keep their stored order, so the result is
// the permutation sort.SliceStable gives. It is a least-significant-digit
// radix sort over the timestamps' eight bytes that skips every byte all
// timestamps share (a month of seconds needs three passes), then gathers
// each column through the permutation into a fresh slice; no column's old
// backing array is written.
//
// Reordering produces new data, so any previously issued stamp and
// lineage, cached Source view and bounds memo are discarded:
// geoblocks/span/segment/slab caches keyed on the old stamp or lineage
// must never alias the reordered columns. The
// columns are assigned field-wise — the whole struct cannot be copied over
// because the stamp, lineage, source and bounds fields are atomics.
func (ps *PointSet) SortByTime() {
	if ps.T == nil {
		return
	}
	perm := timeOrder(ps.T)
	ps.X, ps.Y, ps.T = gather(ps.X, perm), gather(ps.Y, perm), gather(ps.T, perm)
	var attrs []Column
	for _, c := range ps.Attrs {
		attrs = append(attrs, Column{Name: c.Name, Values: gather(c.Values, perm)})
	}
	ps.Attrs = attrs
	ps.stamp.Store(0)
	ps.lineage.Store(0)
	ps.source.Store(nil)
	ps.bounds.Store(nil)
}

// timeOrder returns the stable ascending permutation of t: an LSD radix
// sort of the keys with their sign bit flipped (so unsigned byte order is
// signed order), carrying an int32 index payload. All eight byte
// histograms are built in one pass; a byte position every key shares
// needs no pass. Each pass is a counting sort, which is stable, so the
// permutation ties resolve in index order.
func timeOrder(t []int64) []int32 {
	n := len(t)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("data: cannot sort %d points by time (max %d)", n, math.MaxInt32))
	}
	keys := make([]uint64, n)
	perm := make([]int32, n)
	var counts [8][256]int32
	for i, v := range t {
		k := uint64(v) ^ 1<<63
		keys[i], perm[i] = k, int32(i)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	if n < 2 {
		return perm
	}
	keys2, perm2 := make([]uint64, n), make([]int32, n)
	for b := range counts {
		shift := uint(8 * b)
		c := &counts[b]
		if c[byte(keys[0]>>shift)] == int32(n) {
			continue // every key has this byte
		}
		var sum int32
		for d, v := range c {
			c[d], sum = sum, sum+v
		}
		for i, k := range keys {
			d := byte(k >> shift)
			j := c[d]
			c[d]++
			keys2[j], perm2[j] = k, perm[i]
		}
		keys, keys2 = keys2, keys
		perm, perm2 = perm2, perm
	}
	return perm
}

// gather returns a new slice holding s[perm[0]], s[perm[1]], ...
func gather[E any](s []E, perm []int32) []E {
	out := make([]E, len(perm))
	for j, i := range perm {
		out[j] = s[i]
	}
	return out
}

// AppendCOW returns a new PointSet holding ps's points followed by tail's,
// without copying ps's columns when spare capacity allows: the new set is
// built with append, so it shares ps's backing arrays and writes only
// beyond ps's length. Concurrent readers of ps are safe — they hold slice
// headers whose length stops at the old point count and never index past
// it — which is what lets the framework's Append swap in the grown set
// while queries over the old snapshot are still running.
//
// tail must match ps's schema exactly: the same presence of a time column
// and the same attribute columns in the same order. ps itself is not
// modified and keeps serving its old length. The returned set carries a
// fresh stamp larger than ps's, so stamp-keyed caches (geoblocks, slab
// partials) treat it as new data, its bounds are ps's bounds united with
// tail's, and its source view starts from ps's (see grownSource): an
// append folds and zones only the tail, never the whole set again. It
// inherits ps's lineage when no tail timestamp precedes ps's last one, and
// starts a lineage of its own otherwise.
func (ps *PointSet) AppendCOW(tail *PointSet) (*PointSet, error) {
	if err := tail.Validate(); err != nil {
		return nil, err
	}
	if (ps.T != nil) != (tail.T != nil) {
		return nil, fmt.Errorf("data: %q: append tail time column mismatch (base has time: %v)",
			ps.Name, ps.T != nil)
	}
	if len(tail.Attrs) != len(ps.Attrs) {
		return nil, fmt.Errorf("data: %q: append tail has %d attributes, base has %d",
			ps.Name, len(tail.Attrs), len(ps.Attrs))
	}
	for i := range ps.Attrs {
		if tail.Attrs[i].Name != ps.Attrs[i].Name {
			return nil, fmt.Errorf("data: %q: append tail attribute %d is %q, base has %q",
				ps.Name, i, tail.Attrs[i].Name, ps.Attrs[i].Name)
		}
	}
	out := &PointSet{
		Name: ps.Name,
		X:    append(ps.X, tail.X...),
		Y:    append(ps.Y, tail.Y...),
	}
	if ps.T != nil {
		out.T = append(ps.T, tail.T...)
	}
	out.Attrs = make([]Column, len(ps.Attrs))
	for i, c := range ps.Attrs {
		out.Attrs[i] = Column{Name: c.Name, Values: append(c.Values, tail.Attrs[i].Values...)}
	}
	b := ps.Bounds().Union(tail.Bounds())
	ps.Stamp() // before out's: the newer snapshot gets the larger stamp
	out.Stamp()
	if inOrder(ps.T, tail.T) {
		out.lineage.Store(ps.Lineage())
	}
	out.bounds.Store(&b)
	if src := ps.grownSource(out, tail); src != nil {
		out.source.Store(src)
	}
	return out, nil
}

// inOrder reports whether no timestamp of tail precedes the last of t.
func inOrder(t, tail []int64) bool {
	if len(t) == 0 {
		return true
	}
	horizon := t[len(t)-1]
	for _, v := range tail {
		if v < horizon {
			return false
		}
	}
	return true
}

// TimeWindow returns the index range [lo, hi) of points with timestamps in
// [start, end), assuming the set is sorted by time.
func (ps *PointSet) TimeWindow(start, end int64) (lo, hi int) {
	lo = sort.Search(ps.Len(), func(i int) bool { return ps.T[i] >= start })
	hi = sort.Search(ps.Len(), func(i int) bool { return ps.T[i] >= end })
	return lo, hi
}
