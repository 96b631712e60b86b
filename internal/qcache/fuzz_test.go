// This file is an external test package (qcache_test, not qcache): it
// imports internal/query, which reaches qcache again through the slab-fold
// joiner's cache keys — an import cycle if these tests compiled into the
// package proper.
package qcache_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/qcache"
	"repro/internal/query"
)

// cacheKeyCorpus mirrors the statement corpus in internal/query's
// FuzzParse, plus variants that differ only in filter order, whitespace,
// case, or bounds — the shapes a cache key must separate or unify
// correctly.
var cacheKeyCorpus = []string{
	"SELECT COUNT(*) FROM taxi, neighborhoods GROUP BY id",
	"SELECT AVG(fare) FROM a, b WHERE fare BETWEEN 5 AND 30",
	"SELECT MAX(x) FROM p, r WHERE time BETWEEN 0 AND 86400",
	"select sum(y) from p , r where inside and y between -1 and 2.5",
	"SELECT",
	"((((",
	"SELECT COUNT(*) FROM a, b WHERE fare BETWEEN one AND two",
	"SELECT COUNT(*) FROM a, b WHERE fare BETWEEN 5 AND 30 AND dist BETWEEN 1 AND 2",
	"SELECT COUNT(*) FROM a, b WHERE dist BETWEEN 1 AND 2 AND fare BETWEEN 5 AND 30",
	"SELECT COUNT(*) FROM a, b WHERE fare BETWEEN -0 AND 30",
	"SELECT COUNT(*) FROM a, b WHERE fare BETWEEN 0 AND 30",
	"SELECT MIN(fare) FROM taxi, grid WHERE time BETWEEN 3599 AND 7201",
}

// canonicalKey applies the server's /api/query canonicalization: sort the
// filter set, snap the time window, re-render, and key the quoted
// statement.
func canonicalKey(q query.Query, snap int64) (string, query.Query) {
	q.Filters = qcache.CanonFilters(q.Filters)
	q.Time = qcache.SnapTime(q.Time, snap)
	return qcache.NewSig("query").Str("stmt", q.String()).Key(), q
}

// floatEq compares filter bounds the way the canonical encoding does: all
// NaNs are one value, and ±0 collapse.
func floatEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b // ±0 compare equal in float64
}

func timeEq(a, b *core.TimeFilter) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// canonEqual is structural equality of two canonicalized queries —
// computed independently of the string encoding, so it catches both
// collision bugs (different queries, same key) and fragmentation bugs
// (same query, different keys).
func canonEqual(a, b query.Query) bool {
	if a.Agg != b.Agg || a.Attr != b.Attr || a.Points != b.Points || a.Regions != b.Regions {
		return false
	}
	if !timeEq(a.Time, b.Time) {
		return false
	}
	if len(a.Filters) != len(b.Filters) {
		return false
	}
	for i := range a.Filters {
		fa, fb := a.Filters[i], b.Filters[i]
		if fa.Attr != fb.Attr || !floatEq(fa.Min, fb.Min) || !floatEq(fa.Max, fb.Max) {
			return false
		}
	}
	return true
}

// FuzzCacheKey asserts the cache key is a perfect fingerprint of the
// canonical query: for any two parseable statements, the keys are equal
// if and only if the canonicalized queries are structurally equal. The
// "only if" direction is the no-collision guarantee — semantically
// different queries can never share a cache entry.
func FuzzCacheKey(f *testing.F) {
	for i, a := range cacheKeyCorpus {
		f.Add(a, cacheKeyCorpus[(i+1)%len(cacheKeyCorpus)], int64(1))
		f.Add(a, a, int64(3600))
	}
	f.Add("SELECT COUNT(*) FROM t, r WHERE time BETWEEN 1 AND 3599",
		"SELECT COUNT(*) FROM t, r WHERE time BETWEEN 2 AND 3600", int64(3600))
	f.Fuzz(func(t *testing.T, stmtA, stmtB string, snap int64) {
		if snap < 1 {
			snap = 1
		}
		snap %= 1 << 32
		qa, errA := query.Parse(stmtA)
		qb, errB := query.Parse(stmtB)
		if errA != nil || errB != nil {
			return
		}
		keyA, canonA := canonicalKey(qa, snap)
		keyB, canonB := canonicalKey(qb, snap)
		same := canonEqual(canonA, canonB)
		if same && keyA != keyB {
			t.Fatalf("equivalent queries fragmented:\n%q -> %s\n%q -> %s", stmtA, keyA, stmtB, keyB)
		}
		if !same && keyA == keyB {
			t.Fatalf("different queries collided on %s:\n%q (canon %+v)\n%q (canon %+v)",
				keyA, stmtA, canonA, stmtB, canonB)
		}
	})
}

// statsFrom turns fuzz bytes into region stats, 16 bytes per region: a
// count and one float, written into every float field so whichever one the
// aggregate keeps carries the fuzzed bits.
func statsFrom(raw []byte) []core.RegionStat {
	stats := make([]core.RegionStat, len(raw)/16)
	for i := range stats {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
		stats[i] = core.RegionStat{Count: int64(binary.LittleEndian.Uint64(raw[16*i:])), Sum: v, Min: v, Max: v}
	}
	return stats
}

// FuzzResultEntry asserts a selection entry round-trips exactly: the three
// strings, the aggregate, every region's Count and the float its aggregate
// reads — bit for bit, NaN payloads, ±Inf and −0 included — so Value
// returns the same bits from a decoded entry as from the join's result for
// every aggregate the entry serves (SUM's also serves AVG). The encoding is
// allocated at exactly its length, a truncated entry is refused, and
// decoding arbitrary bytes never panics.
func FuzzResultEntry(f *testing.F) {
	special := func(vs ...float64) []byte {
		var b []byte
		for i, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(i))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	for agg := core.Count; agg <= core.Max; agg++ {
		f.Add(uint8(agg), "raster-join-accurate-1024px", "ad-hoc query routed to raster join", "mapview/SUM",
			special(math.NaN(), payloadNaN, math.Inf(1), math.Inf(-1), negZero, 0, 1.5, -2.25e300))
	}
	f.Add(uint8(core.Sum), "", "", "", []byte{})
	f.Fuzz(func(t *testing.T, aggByte uint8, alg, reason, view string, raw []byte) {
		// Whatever the bytes, decoding must not panic.
		_, _ = qcache.DecodeResult(raw)

		agg := core.Agg(aggByte)
		in := qcache.Result{Agg: agg, Stats: statsFrom(raw), Algorithm: alg, Reason: reason, View: view}
		enc := qcache.EncodeResult(in)
		if len(enc) != cap(enc) {
			t.Fatalf("entry len %d, cap %d: the cache charges len", len(enc), cap(enc))
		}
		out, err := qcache.DecodeResult(enc)
		if err != nil {
			t.Fatalf("decoding a fresh entry: %v", err)
		}
		if out.Agg != agg || out.Algorithm != alg || out.Reason != reason || out.View != view ||
			len(out.Stats) != len(in.Stats) {
			t.Fatalf("header drifted: %+v -> agg %v %q %q %q, %d stats",
				in, out.Agg, out.Algorithm, out.Reason, out.View, len(out.Stats))
		}
		served := []core.Agg{agg}
		if agg == core.Sum {
			served = append(served, core.Avg)
		}
		for i := range in.Stats {
			if out.Stats[i].Count != in.Stats[i].Count {
				t.Fatalf("region %d: count %d -> %d", i, in.Stats[i].Count, out.Stats[i].Count)
			}
			for _, a := range served {
				want, got := in.Stats[i].Value(a), out.Stats[i].Value(a)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("region %d: %v value %x -> %x", i, a, math.Float64bits(want), math.Float64bits(got))
				}
			}
		}
		if len(enc) > 0 {
			if _, err := qcache.DecodeResult(enc[:len(enc)-1]); err == nil {
				t.Fatal("a truncated entry decoded")
			}
		}
	})
}
