package qcache

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/core"
)

// Sig accumulates the canonical signature of a query as an ordered list of
// named fields and renders an injective string key. The encoding is
// `kind|name=value|name=value|...` where every string value is
// strconv.Quote'd (so quotes inside values are always escaped and the
// field structure stays unambiguous), numbers are rendered in canonical
// decimal form, and composite fields (filter sets, time ranges) are
// length- and index-tagged. Two signatures built from different canonical
// field values therefore always render different keys.
type Sig struct {
	b []byte
}

// NewSig starts a signature for one endpoint kind.
func NewSig(kind string) *Sig {
	s := &Sig{b: make([]byte, 0, 128)}
	s.b = strconv.AppendQuote(s.b, kind)
	return s
}

func (s *Sig) field(name string) {
	s.b = append(s.b, '|')
	s.b = append(s.b, name...)
	s.b = append(s.b, '=')
}

// Str appends a quoted string field.
func (s *Sig) Str(name, v string) *Sig {
	s.field(name)
	s.b = strconv.AppendQuote(s.b, v)
	return s
}

// Int appends an integer field.
func (s *Sig) Int(name string, v int64) *Sig {
	s.field(name)
	s.b = strconv.AppendInt(s.b, v, 10)
	return s
}

// Float appends a float field in canonical form: shortest round-trippable
// decimal, with negative zero normalized to zero so the semantically
// identical bounds -0.0 and 0.0 share a key.
func (s *Sig) Float(name string, v float64) *Sig {
	s.field(name)
	if v == 0 {
		v = 0 // collapses -0.0 onto +0.0
	}
	s.b = strconv.AppendFloat(s.b, v, 'g', -1, 64)
	return s
}

// Ints appends an ordered integer list, length-tagged so adjacent lists
// never run together.
func (s *Sig) Ints(name string, vs []int) *Sig {
	s.Int(name+".n", int64(len(vs)))
	for _, v := range vs {
		s.b = strconv.AppendInt(append(s.b, ','), int64(v), 10)
	}
	return s
}

// Filters appends a filter set in canonical (order-insensitive) form: the
// set is copied, normalized, and sorted before encoding, so any
// permutation of the same conjunctive filters renders the same key.
func (s *Sig) Filters(name string, fs []core.Filter) *Sig {
	canon := CanonFilters(fs)
	s.Int(name+".n", int64(len(canon)))
	for i, f := range canon {
		tag := name + "." + strconv.Itoa(i)
		s.Str(tag+".attr", f.Attr)
		s.Float(tag+".min", f.Min)
		s.Float(tag+".max", f.Max)
	}
	return s
}

// Epoch appends the dataset's per-dataset epoch pair. Keys carry the
// epoch so a write to one dataset produces fresh keys for that dataset
// alone — every other dataset's entries remain reachable, and the old
// epoch's entries, which no key reaches again, age out of the byte budget.
func (s *Sig) Epoch(dataset string, epoch uint64) *Sig {
	return s.Str("eds", dataset).Int("ep", int64(epoch))
}

// TimeRange appends an optional time filter; presence is encoded
// explicitly so "no filter" can never collide with any concrete window.
func (s *Sig) TimeRange(name string, t *core.TimeFilter) *Sig {
	if t == nil {
		return s.Int(name+".has", 0)
	}
	s.Int(name+".has", 1)
	s.Int(name+".start", t.Start)
	s.Int(name+".end", t.End)
	return s
}

// Key renders the accumulated signature.
func (s *Sig) Key() string { return string(s.b) }

// CanonFilters returns the canonical form of a conjunctive filter set:
// a copy with negative-zero bounds normalized and entries sorted by
// (Attr, Min, Max). Conjunction is order-insensitive, so this is
// semantics-preserving.
func CanonFilters(fs []core.Filter) []core.Filter {
	if len(fs) == 0 {
		return nil
	}
	canon := make([]core.Filter, len(fs))
	for i, f := range fs {
		if f.Min == 0 {
			f.Min = 0
		}
		if f.Max == 0 {
			f.Max = 0
		}
		canon[i] = f
	}
	sort.Slice(canon, func(i, j int) bool {
		a, b := canon[i], canon[j]
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		if c := cmpFloat(a.Min, b.Min); c != 0 {
			return c < 0
		}
		return cmpFloat(a.Max, b.Max) < 0
	})
	return canon
}

// cmpFloat is a total order over float64 so sorting stays deterministic
// even for NaN bounds (which the parser can produce): NaN sorts before
// everything and all NaNs tie, matching their identical key encoding.
func cmpFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// SnapTime quantizes a time window outward to multiples of gran: the start
// floors and the end ceils, so the snapped window always covers the
// requested one. Interactive time sliders produce ragged millisecond-level
// windows; snapping them to the workload's bucket granularity makes
// consecutive drags share cache entries. The server applies the same
// snapped window to execution and to the cache key, so caching never
// changes what a given request returns. gran <= 1 is the identity.
//
// Snapping saturates: a bound whose multiple of gran would leave int64
// stays at math.MinInt64 or math.MaxInt64, so "everything after t" keeps
// meaning everything. Such a window is unaligned or far wider than any
// slab cap, so the slab fold declines it and the raster join answers.
func SnapTime(t *core.TimeFilter, gran int64) *core.TimeFilter {
	if t == nil || gran <= 1 {
		return t
	}
	start := int64(math.MinInt64)
	if q := floorDiv(t.Start, gran); q >= math.MinInt64/gran {
		start = q * gran
	}
	end := int64(math.MaxInt64)
	if q := ceilDiv(t.End, gran); q <= math.MaxInt64/gran {
		end = q * gran
	}
	if end <= start {
		// An empty window snaps to the one slab at its start, clipped at
		// math.MaxInt64; a start on math.MaxInt64 itself (gran divides
		// it) moves back one slab.
		if start == math.MaxInt64 {
			start -= gran
		}
		end = math.MaxInt64
		if start <= math.MaxInt64-gran {
			end = start + gran
		}
	}
	return &core.TimeFilter{Start: start, End: end}
}

// floorDiv is integer division rounding toward negative infinity (gran > 0).
func floorDiv(a, g int64) int64 {
	q := a / g
	if a%g != 0 && a < 0 {
		q--
	}
	return q
}

// ceilDiv is integer division rounding toward positive infinity (gran > 0).
func ceilDiv(a, g int64) int64 {
	q := a / g
	if a%g != 0 && a > 0 {
		q++
	}
	return q
}
