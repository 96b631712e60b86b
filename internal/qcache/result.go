package qcache

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"repro/internal/core"
)

// SelectionKind is the key kind of a selection entry: the join result of
// one canonical selection (data set, layer, aggregate, attribute, filters,
// time window), stored once and rendered by every view of it — the map
// view's JSON, the SQL endpoint's rows, the choropleth PNG at any width.
// Build the key with ResultAgg in place of the view's aggregate.
const SelectionKind = "selection"

// ResultAgg is the aggregate a selection entry is keyed and stored under.
// AVG folds onto SUM: AVG is SUM over COUNT, and every engine computes the
// two from the same count and sum state, so one entry serves both. Every
// other aggregate is its own.
func ResultAgg(a core.Agg) core.Agg {
	if a == core.Avg {
		return core.Sum
	}
	return a
}

// Result is a selection entry decoded: the per-region stats of the join,
// the engine's Algorithm string, the routing Reason, and the view whose
// request computed it. Stats carry Count for every aggregate, plus Sum
// under SUM and AVG, Min under MIN and Max under MAX; the other fields are
// zero. That is all RegionStat.Value reads for any aggregate whose
// ResultAgg is Agg.
type Result struct {
	Agg       core.Agg
	Stats     []core.RegionStat
	Algorithm string
	Reason    string
	View      string
}

// errBadResult reports a value that is not an EncodeResult encoding.
var errBadResult = errors.New("qcache: malformed selection entry")

// field returns the one float a stat keeps besides Count under agg, and
// whether there is one. AVG keeps Sum, like SUM, so a Result built with the
// view's own aggregate still encodes everything Value reads.
func field(agg core.Agg, s *core.RegionStat) (*float64, bool) {
	switch agg {
	case core.Sum, core.Avg:
		return &s.Sum, true
	case core.Min:
		return &s.Min, true
	case core.Max:
		return &s.Max, true
	default:
		return nil, false
	}
}

// statBytes is the encoded size of one region's stat under agg.
func statBytes(agg core.Agg) int {
	if _, ok := field(agg, &core.RegionStat{}); ok {
		return 16
	}
	return 8
}

// uvarintLen is the length binary.AppendUvarint gives x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// EncodeResult renders r as a selection entry: the three strings
// length-prefixed, the aggregate, the region count, then per region Count
// and (for SUM, AVG, MIN, MAX) the one float the aggregate reads, each as eight
// little-endian bytes — float64s by their bit pattern, so NaN payloads,
// infinities and negative zero survive exactly. The buffer is allocated at
// its exact size: the cache charges len, so no hidden capacity may ride
// along.
func EncodeResult(r Result) []byte {
	strs := [3]string{r.Algorithm, r.Reason, r.View}
	size := 1 + uvarintLen(uint64(len(r.Stats))) + statBytes(r.Agg)*len(r.Stats)
	for _, s := range strs {
		size += uvarintLen(uint64(len(s))) + len(s)
	}
	b := make([]byte, 0, size)
	for _, s := range strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = append(b, byte(r.Agg))
	b = binary.AppendUvarint(b, uint64(len(r.Stats)))
	for i := range r.Stats {
		s := &r.Stats[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Count))
		if f, ok := field(r.Agg, s); ok {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*f))
		}
	}
	return b
}

// DecodeResult parses an EncodeResult encoding.
func DecodeResult(b []byte) (Result, error) {
	var r Result
	var strs [3]string
	for i := range strs {
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)-w) {
			return Result{}, errBadResult
		}
		strs[i] = string(b[w : w+int(n)])
		b = b[w+int(n):]
	}
	r.Algorithm, r.Reason, r.View = strs[0], strs[1], strs[2]
	if len(b) < 1 {
		return Result{}, errBadResult
	}
	r.Agg, b = core.Agg(b[0]), b[1:]
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return Result{}, errBadResult
	}
	b = b[w:]
	if per := uint64(statBytes(r.Agg)); n != uint64(len(b))/per || uint64(len(b))%per != 0 {
		return Result{}, errBadResult
	}
	r.Stats = make([]core.RegionStat, n)
	for i := range r.Stats {
		s := &r.Stats[i]
		s.Count = int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if f, ok := field(r.Agg, s); ok {
			*f = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	return r, nil
}
