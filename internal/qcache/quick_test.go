package qcache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// sigForFilters builds the same signature shape the server's map-view key
// uses, isolating the filter-set encoding.
func sigForFilters(fs []core.Filter) string {
	return NewSig("mapview").Str("dataset", "taxi").Filters("f", fs).Key()
}

// TestKeyFilterOrderInsensitive: canonicalization makes the key invariant
// under any permutation of the conjunctive filter set.
func TestKeyFilterOrderInsensitive(t *testing.T) {
	prop := func(fs []core.Filter, seed int64) bool {
		shuffled := make([]core.Filter, len(fs))
		copy(shuffled, fs)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		return sigForFilters(fs) == sigForFilters(shuffled)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestKeyFilterSetSensitive: appending a filter that is not already in the
// set must change the key (no silent collisions across different sets).
func TestKeyFilterSetSensitive(t *testing.T) {
	prop := func(fs []core.Filter, extra core.Filter) bool {
		for _, f := range fs {
			if f == extra {
				return true // duplicate; the sets could canonicalize equal
			}
		}
		return sigForFilters(fs) != sigForFilters(append(append([]core.Filter{}, fs...), extra))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestKeyFieldBoundaries: adversarial strings containing the encoding's
// own separators must not let one field bleed into the next.
func TestKeyFieldBoundaries(t *testing.T) {
	a := NewSig("q").Str("dataset", `taxi|layer="x"`).Str("layer", "y").Key()
	b := NewSig("q").Str("dataset", "taxi").Str("layer", `x"|layer="y`).Key()
	if a == b {
		t.Fatalf("separator injection collided: %q", a)
	}
	c := NewSig("q").Filters("f", []core.Filter{{Attr: "a|b", Min: 1, Max: 2}}).Key()
	d := NewSig("q").Filters("f", []core.Filter{{Attr: "a", Min: 1, Max: 2}, {Attr: "b", Min: 1, Max: 2}}).Key()
	if c == d {
		t.Fatalf("filter boundary injection collided: %q", c)
	}
}

// TestKeyNegativeZeroNormalized: [-0, x) and [0, x) are the same range and
// must share a cache entry.
func TestKeyNegativeZeroNormalized(t *testing.T) {
	neg := []core.Filter{{Attr: "fare", Min: negZero(), Max: 10}}
	pos := []core.Filter{{Attr: "fare", Min: 0, Max: 10}}
	if sigForFilters(neg) != sigForFilters(pos) {
		t.Error("-0.0 and +0.0 bounds should canonicalize to the same key")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestSnapTimeProperties: the snapped window always covers the requested
// one, aligns to the granularity, and is idempotent.
func TestSnapTimeProperties(t *testing.T) {
	prop := func(start, span int64, granSeed uint16) bool {
		if span < 0 {
			span = -span
		}
		span %= 1 << 40
		start %= 1 << 40
		gran := int64(granSeed)%86400 + 1
		in := &core.TimeFilter{Start: start, End: start + span}
		out := SnapTime(in, gran)
		if gran <= 1 {
			return out == in
		}
		covers := out.Start <= in.Start && out.End >= in.End
		aligned := out.Start%gran == 0 && out.End%gran == 0
		again := SnapTime(out, gran)
		idempotent := *again == *out
		return covers && aligned && out.End > out.Start && idempotent
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if SnapTime(nil, 3600) != nil {
		t.Error("nil time filter must stay nil")
	}
	// Negative timestamps floor/ceil correctly.
	got := SnapTime(&core.TimeFilter{Start: -10, End: -1}, 60)
	if got.Start != -60 || got.End != 0 {
		t.Errorf("negative snap = [%d,%d), want [-60,0)", got.Start, got.End)
	}
}

// TestSnapTimeExtremes: windows reaching the int64 extremes snap without
// overflow. A bound with no multiple of gran between it and the extreme
// saturates there, so the window still covers the request and the
// properties of TestSnapTimeProperties hold, alignment aside.
func TestSnapTimeExtremes(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	for _, c := range []struct {
		in   core.TimeFilter
		gran int64
		want core.TimeFilter // zero: check the properties only
	}{
		{core.TimeFilter{Start: 0, End: hi}, 3600, core.TimeFilter{Start: 0, End: hi}},
		{core.TimeFilter{Start: 1230768000, End: hi - 100}, 3600, core.TimeFilter{Start: 1230768000, End: hi}},
		{core.TimeFilter{Start: lo, End: 0}, 3600, core.TimeFilter{Start: lo, End: 0}},
		{core.TimeFilter{Start: lo, End: hi}, 3600, core.TimeFilter{Start: lo, End: hi}},
		{core.TimeFilter{Start: hi - 1, End: hi}, 3600, core.TimeFilter{}},
		{core.TimeFilter{Start: hi - 5, End: hi - 5}, 3600, core.TimeFilter{}},
		{core.TimeFilter{Start: hi, End: hi}, 7, core.TimeFilter{Start: hi - 7, End: hi}}, // 7 divides MaxInt64
		{core.TimeFilter{Start: lo, End: lo}, 1024, core.TimeFilter{Start: lo, End: lo + 1024}},
		{core.TimeFilter{Start: lo + 1, End: lo + 2}, 3600, core.TimeFilter{}},
	} {
		in := c.in
		out := SnapTime(&in, c.gran)
		covers := out.Start <= in.Start && out.End >= in.End
		if !covers || out.End <= out.Start {
			t.Errorf("SnapTime([%d,%d), %d) = [%d,%d): want a non-empty cover",
				in.Start, in.End, c.gran, out.Start, out.End)
		}
		if again := SnapTime(out, c.gran); *again != *out {
			t.Errorf("SnapTime([%d,%d), %d) not idempotent: [%d,%d) then [%d,%d)",
				in.Start, in.End, c.gran, out.Start, out.End, again.Start, again.End)
		}
		if c.want != (core.TimeFilter{}) && *out != c.want {
			t.Errorf("SnapTime([%d,%d), %d) = [%d,%d), want [%d,%d)",
				in.Start, in.End, c.gran, out.Start, out.End, c.want.Start, c.want.End)
		}
	}
}
