package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/raster"
)

// mergeSpans is pass 2 one fragment at a time: every covered pixel with
// points becomes a RegionStat — its count, and its sum or its min/max texel
// as both Min and Max — folded in through Merge. foldSpans must equal it.
func mergeSpans(c *gpu.Canvas, t *targets, spans []raster.Span) RegionStat {
	var local RegionStat
	c.DrawSpans(spans, func(px, py int) {
		v := t.count.At(px, py)
		if v == 0 {
			return
		}
		pixel := RegionStat{Count: int64(v)}
		switch {
		case t.sum != nil:
			pixel.Sum = t.sum.At(px, py)
		case t.min != nil:
			m := t.min.At(px, py)
			pixel.Min, pixel.Max = m, m
		case t.max != nil:
			m := t.max.At(px, py)
			pixel.Min, pixel.Max = m, m
		}
		local.Merge(pixel)
	})
	return local
}

// randomSpans draws up to five spans on a w×h canvas, in any row order: one
// pixel long, ending at the last column, or anywhere.
func randomSpans(rng *rand.Rand, w, h int) []raster.Span {
	spans := make([]raster.Span, rng.Intn(6))
	for i := range spans {
		x0 := rng.Intn(w)
		x1 := x0 + 1 + rng.Intn(w-x0)
		switch rng.Intn(3) {
		case 0:
			x1 = x0 + 1
		case 1:
			x1 = w
		}
		spans[i] = raster.Span{Y: int32(rng.Intn(h)), X0: int32(x0), X1: int32(x1)}
	}
	return spans
}

// statBits reports whether a and b agree in every field, bit for bit, with
// any two NaNs equal: when two NaNs with different bits meet in an
// addition, which one the sum carries depends on the order the compiler
// gives the operands, and Go leaves that open (the race detector's build
// picks a different order here than the plain build).
func statBits(a, b RegionStat) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || x != x && y != y
	}
	return a.Count == b.Count && same(a.Sum, b.Sum) && same(a.Min, b.Min) && same(a.Max, b.Max)
}

// TestSpanFoldMatchesMerge: over textures blended by pass 1 from values
// that include NaN, ±Inf, −0, subnormals and ±1e300, with empty pixels,
// foldSpans equals the per-fragment Merge fold in all four fields, bit for
// bit up to NaN payloads, for every aggregate — on 1×1 canvases, over no
// spans, one-pixel spans and spans ending at the last column — and moves
// the device counters as DrawSpans does.
func TestSpanFoldMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030, 1e300, -1e300}
	dev := gpu.New()
	delta := func(a, b gpu.Stats) gpu.Stats {
		return gpu.Stats{DrawCalls: b.DrawCalls - a.DrawCalls, PolygonsIn: b.PolygonsIn - a.PolygonsIn,
			FragmentsShaded: b.FragmentsShaded - a.FragmentsShaded}
	}
	for _, size := range [][2]int{{1, 1}, {1, 4}, {5, 1}, {7, 3}, {64, 2}, {130, 5}} {
		w, h := size[0], size[1]
		c, err := dev.NewCanvas(geom.BBox{MaxX: float64(w), MaxY: float64(h)}, w, h)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
			for trial := 0; trial < 200; trial++ {
				tl := &tile{c: c, targets: newTargets(agg, 0, w, h, nil, gpu.NewTexture)}
				for i := rng.Intn(2 * w * h); i > 0; i-- {
					v := special[rng.Intn(len(special))]
					if rng.Intn(2) == 0 {
						v = rng.NormFloat64() * 100
					}
					tl.shade(rng.Intn(w), rng.Intn(h), 0, 0, v)
				}
				spans := randomSpans(rng, w, h)
				before := dev.Stats()
				want := mergeSpans(c, &tl.targets, spans)
				mid := dev.Stats()
				got := tl.foldSpans(spans)
				after := dev.Stats()
				label := fmt.Sprintf("%dx%d %v trial %d spans %v", w, h, agg, trial, spans)
				if !statBits(got, want) {
					t.Fatalf("%s: fold %+v, want %+v", label, got, want)
				}
				if d, e := delta(mid, after), delta(before, mid); d != e {
					t.Fatalf("%s: counters moved %+v, DrawSpans moves %+v", label, d, e)
				}
			}
		}
		c.Release()
	}
}
