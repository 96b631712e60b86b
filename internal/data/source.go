package data

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// DefaultBlockSize is the number of points per block a PointSource exposes
// by default: large enough that per-block overhead (zone map checks, draw
// call setup) amortizes away, small enough that a zone map prunes usefully
// on clustered data. 8K points ≈ 256 KiB per decoded coordinate pair.
const DefaultBlockSize = 8192

// ZoneCol is the zone-map entry for one float column within one block:
// the min/max over the block's non-NaN values plus a NaN marker. An empty
// or all-NaN column has Min=+Inf, Max=-Inf, which fails every interval
// overlap test — correct, since NaN fails every filter comparison too.
type ZoneCol struct {
	Min, Max float64
	HasNaN   bool
}

// Observe folds one value into the zone entry.
func (z *ZoneCol) Observe(v float64) {
	if math.IsNaN(v) {
		z.HasNaN = true
		return
	}
	if v < z.Min {
		z.Min = v
	}
	if v > z.Max {
		z.Max = v
	}
}

// EmptyZoneCol returns the identity zone entry (Min=+Inf, Max=-Inf).
func EmptyZoneCol() ZoneCol {
	return ZoneCol{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Zone is one block's zone map: per-column min/max for the coordinates,
// the time column, and every attribute. Query layers test filter and
// window predicates against it to skip blocks that provably cannot match.
type Zone struct {
	X, Y ZoneCol
	// MinT, MaxT bound the block's timestamps (0,0 when the source has no
	// time column).
	MinT, MaxT int64
	// Attr is parallel to the source's AttrNames().
	Attr []ZoneCol
}

// Block is one decoded run of points, addressed by absolute point index:
// the values of point i (Base <= i < Base+Len()) sit at local offset
// i-Base. Attr is parallel to the source's AttrNames(). T is nil when the
// source has no time column or the read did not ask for it, and so is an
// Attr entry the read did not ask for.
type Block struct {
	Base int
	X, Y []float64
	T    []int64
	Attr [][]float64
}

// Len returns the number of points in the block.
func (b *Block) Len() int { return len(b.X) }

// Columns is the projection of a block read: X and Y always come back, T
// when T is set (and the source has timestamps), and the attribute columns
// at the positions listed in Attrs. Negative positions are ignored, so an
// unresolved AttrIndex can be passed straight through.
type Columns struct {
	T     bool
	Attrs []int
}

// Need adds attribute positions to the projection.
func (c *Columns) Need(attrs ...int) {
	for _, a := range attrs {
		if a >= 0 {
			c.Attrs = append(c.Attrs, a)
		}
	}
}

// AllColumns returns the projection that reads every column of src.
func AllColumns(src PointSource) Columns {
	c := Columns{T: src.HasTime(), Attrs: make([]int, len(src.AttrNames()))}
	for a := range c.Attrs {
		c.Attrs[a] = a
	}
	return c
}

// PointSource is the block-iterator read path for point data: a sequence
// of fixed-size blocks with per-block zone maps, consumed by the raster
// joiners, the cube and geoblocks builds, and the streaming loader. The
// in-RAM PointSet adapts to it via Source(); the columnar segment store
// (internal/segment) implements it over an on-disk layout so data sets can
// exceed RAM.
//
// Implementations must be safe for concurrent readers, and a source's
// contents must be immutable for its lifetime (Stamp identifies the data
// for caches, exactly like PointSet.Stamp).
type PointSource interface {
	// Name identifies the data set.
	Name() string
	// Len returns the total number of points.
	Len() int
	// Stamp returns a process-unique identity for the data (see
	// PointSet.Stamp).
	Stamp() uint64
	// AttrNames returns the attribute column names in storage order; every
	// Block's Attr slice is parallel to it.
	AttrNames() []string
	// HasTime reports whether the source carries a time column.
	HasTime() bool
	// TimeSorted reports whether timestamps are globally non-decreasing,
	// enabling binary-search time windows.
	TimeSorted() bool
	// NumBlocks returns the number of blocks.
	NumBlocks() int
	// BlockSpan returns the absolute point-index range [lo, hi) of block b.
	BlockSpan(b int) (lo, hi int)
	// Zone returns block b's zone map without decoding the block.
	Zone(b int) Zone
	// Read returns block b projected to cols: X and Y, plus T and the
	// listed attributes; a source may leave every other column nil. The
	// returned columns are shared and must not be mutated; out-of-core
	// sources may evict them from their cache after the caller is done, so
	// callers must not retain them across blocks.
	Read(b int, cols Columns) (*Block, error)
}

// Slabber is an optional PointSource fast path: sources whose storage is
// already contiguous in RAM can serve one zero-copy Block spanning an
// arbitrary index range, letting scan loops draw a maximal run of
// surviving blocks in a single draw instead of one per block.
type Slabber interface {
	Slab(lo, hi int) (*Block, bool)
}

// NewStamp issues a fresh process-unique data identity from the same
// namespace as PointSet.Stamp, for PointSource implementations that are
// not backed by a PointSet.
func NewStamp() uint64 { return pointSetStamps.Add(1) }

// AttrIndex returns the position of the named attribute in the source's
// column order, or -1 when absent.
func AttrIndex(src PointSource, name string) int {
	for i, n := range src.AttrNames() {
		if n == name {
			return i
		}
	}
	return -1
}

// setSource adapts an in-RAM PointSet to the PointSource interface:
// blocks are zero-copy sub-slices of the set's columns, zone maps are
// computed once on first use, and Slab serves arbitrary contiguous runs.
// The source of a set AppendCOW grew starts from its parent's: see
// grownSource.
type setSource struct {
	ps        *PointSet
	attrNames []string
	sorted    bool

	// zones is nil until the zone maps are built; zonesOnce builds them
	// once. A grown set's source is published with zones already set.
	zonesOnce sync.Once
	zones     atomic.Pointer[[]Zone]
}

// Source returns the PointSource view of the point set, computed on first
// call and cached. The columns must not be mutated afterwards (the same
// immutability contract Stamp already imposes); mutators like SortByTime
// invalidate the cached view.
func (ps *PointSet) Source() PointSource {
	if s := ps.source.Load(); s != nil {
		return s
	}
	s := &setSource{ps: ps, attrNames: ps.AttrNames(), sorted: timeSorted(ps.T)}
	if ps.source.CompareAndSwap(nil, s) {
		return s
	}
	return ps.source.Load()
}

// grownSource returns the source view of grown, which AppendCOW built as
// ps's points followed by tail's, derived from ps's view in time and space
// proportional to the tail: grown is time-sorted when ps was, the tail is,
// and ps's last timestamp does not follow the tail's first; the zone maps
// of ps's full blocks carry over, because a full block's points are the
// same in both sets, and only ps's last partial block and the tail's
// blocks are zoned afresh — at most ⌈tail/DefaultBlockSize⌉+1 zones. A ps
// without a source view gives nil, leaving grown's view to its first
// Source call; a ps whose zones were never built leaves grown's lazy too.
// The result refers to neither ps nor ps's view — the zones it copies
// share only their immutable attribute entries — so a chain of appends
// pins no old snapshot's columns.
func (ps *PointSet) grownSource(grown, tail *PointSet) *setSource {
	parent := ps.source.Load()
	if parent == nil {
		return nil
	}
	sorted := parent.sorted && timeSorted(tail.T)
	if n := len(ps.T); n > 0 && len(tail.T) > 0 && ps.T[n-1] > tail.T[0] {
		sorted = false
	}
	s := &setSource{ps: grown, attrNames: parent.attrNames, sorted: sorted}
	if pz := parent.zones.Load(); pz != nil {
		full := ps.Len() / DefaultBlockSize
		zs := make([]Zone, s.NumBlocks())
		copy(zs, (*pz)[:full])
		for b := full; b < len(zs); b++ {
			lo, hi := s.BlockSpan(b)
			zs[b] = BuildZone(grown, lo, hi)
		}
		s.zones.Store(&zs)
	}
	return s
}

// timeSorted reports whether t is non-decreasing.
func timeSorted(t []int64) bool {
	for i := 1; i < len(t); i++ {
		if t[i-1] > t[i] {
			return false
		}
	}
	return true
}

func (s *setSource) Name() string        { return s.ps.Name }
func (s *setSource) Len() int            { return s.ps.Len() }
func (s *setSource) Stamp() uint64       { return s.ps.Stamp() }
func (s *setSource) AttrNames() []string { return s.attrNames }
func (s *setSource) HasTime() bool       { return s.ps.T != nil }
func (s *setSource) TimeSorted() bool    { return s.ps.T != nil && s.sorted }

func (s *setSource) NumBlocks() int {
	return (s.ps.Len() + DefaultBlockSize - 1) / DefaultBlockSize
}

func (s *setSource) BlockSpan(b int) (lo, hi int) {
	lo = b * DefaultBlockSize
	hi = lo + DefaultBlockSize
	if hi > s.ps.Len() {
		hi = s.ps.Len()
	}
	return lo, hi
}

func (s *setSource) Zone(b int) Zone {
	if zs := s.zones.Load(); zs != nil {
		return (*zs)[b]
	}
	s.zonesOnce.Do(s.buildZones)
	return (*s.zones.Load())[b]
}

func (s *setSource) buildZones() {
	zs := make([]Zone, s.NumBlocks())
	for b := range zs {
		lo, hi := s.BlockSpan(b)
		zs[b] = BuildZone(s.ps, lo, hi)
	}
	s.zones.Store(&zs)
}

// BuildZone computes the zone map of points [lo, hi) of an in-RAM set.
func BuildZone(ps *PointSet, lo, hi int) Zone {
	z := Zone{X: EmptyZoneCol(), Y: EmptyZoneCol(), Attr: make([]ZoneCol, len(ps.Attrs))}
	for a := range z.Attr {
		z.Attr[a] = EmptyZoneCol()
	}
	for i := lo; i < hi; i++ {
		z.X.Observe(ps.X[i])
		z.Y.Observe(ps.Y[i])
		for a := range ps.Attrs {
			z.Attr[a].Observe(ps.Attrs[a].Values[i])
		}
	}
	if ps.T != nil && hi > lo {
		z.MinT, z.MaxT = ps.T[lo], ps.T[lo]
		for _, t := range ps.T[lo+1 : hi] {
			if t < z.MinT {
				z.MinT = t
			}
			if t > z.MaxT {
				z.MaxT = t
			}
		}
	}
	return z
}

// Read serves every column whatever the projection: the views cost nothing.
func (s *setSource) Read(b int, _ Columns) (*Block, error) {
	lo, hi := s.BlockSpan(b)
	blk, _ := s.Slab(lo, hi)
	return blk, nil
}

// Slab implements Slabber: a zero-copy block over [lo, hi).
func (s *setSource) Slab(lo, hi int) (*Block, bool) {
	ps := s.ps
	blk := &Block{Base: lo, X: ps.X[lo:hi], Y: ps.Y[lo:hi]}
	if ps.T != nil {
		blk.T = ps.T[lo:hi]
	}
	if len(ps.Attrs) > 0 {
		blk.Attr = make([][]float64, len(ps.Attrs))
		for a := range ps.Attrs {
			blk.Attr[a] = ps.Attrs[a].Values[lo:hi]
		}
	}
	return blk, true
}

// WalkBlocks reads each block of src overlapping [lo, hi) in order,
// projected to cols, and invokes fn with the block and the clipped absolute
// range [s, e). Offline builds (cube, geoblocks) use it to stream a source
// without assuming the data is resident; a Slabber source is served one
// zero-copy run.
func WalkBlocks(src PointSource, lo, hi int, cols Columns, fn func(blk *Block, s, e int) error) error {
	if hi > src.Len() {
		hi = src.Len()
	}
	if lo >= hi {
		return nil
	}
	if sl, ok := src.(Slabber); ok {
		if blk, ok := sl.Slab(lo, hi); ok {
			return fn(blk, lo, hi)
		}
	}
	for b := 0; b < src.NumBlocks(); b++ {
		blo, bhi := src.BlockSpan(b)
		if bhi <= lo {
			continue
		}
		if blo >= hi {
			break
		}
		blk, err := src.Read(b, cols)
		if err != nil {
			return fmt.Errorf("data: reading block %d of %q: %w", b, src.Name(), err)
		}
		s, e := blo, bhi
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if err := fn(blk, s, e); err != nil {
			return err
		}
	}
	return nil
}
