package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/geom/geomtest"
	"repro/internal/gpu"
	"repro/internal/raster"
)

// mergeSpans is pass 2 one fragment at a time: every covered pixel with
// points becomes a RegionStat — its count, and its sum or its min/max texel
// as both Min and Max — folded in through Merge, in DrawSpans' order.
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

// mergeResolve is what resolve must merge into each region's stat, computed
// one fragment at a time from the pass-1 state: mergeSpans over the
// region's fill (approximate) or interior (accurate) spans, then, in
// accurate mode, over the region's boundary pixels in Boundary order, each
// observation that landed there, in point order, that Polygon.Contains
// places inside — counted, and added to the sum or observed as an extremum.
func mergeResolve(c *gpu.Canvas, t *tile, polys []geom.Polygon) []RegionStat {
	out := make([]RegionStat, t.sp.Regions())
	for k := range out {
		if t.mask == nil {
			out[k] = mergeSpans(c, &t.targets, t.sp.Fill(k))
			continue
		}
		local := mergeSpans(c, &t.targets, t.sp.Interior(k))
		for _, idx := range t.sp.Boundary(k) {
			px, py := int(idx)%c.T.W, int(idx)/c.T.W
			for _, o := range t.rows[py] {
				if int(o.px) != px || !polys[k].Contains(geom.Point{X: o.x, Y: o.y}) {
					continue
				}
				switch {
				case t.min != nil || t.max != nil:
					local.Observe(o.v)
				case t.sum != nil:
					local.Count++
					//lint:ignore floataccum the reference adds one pixel's observations in point order, as fixup does
					local.Sum += o.v
				default:
					local.Count++
				}
			}
		}
		out[k] = local
	}
	return out
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

// resolveLayer is a small layer over the world [0, 100]²: a square over the
// whole window, one past its right edge, and 18 rings at random, some with
// holes, overlapping one another — more regions than one worker's claims,
// so a claim of pass 3 spans several.
func resolveLayer(rng *rand.Rand) *data.RegionSet {
	square := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.NewPolygon(geom.RectRing(geom.BBox{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}))
	}
	rs := &data.RegionSet{Name: "resolve", Regions: []data.Region{
		{ID: 0, Poly: square(0, 0, 100, 100)},
		{ID: 1, Poly: square(60, 10, 130, 70)},
	}}
	for k := 2; k < 20; k++ {
		c := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		r := 3 + rng.Float64()*30
		pg := geom.NewPolygon(geomtest.RegularRing(c, r, 3+rng.Intn(10)))
		if rng.Intn(3) == 0 {
			pg.Holes = []geom.Ring{geomtest.RegularRing(c, r*(0.2+0.5*rng.Float64()), 3+rng.Intn(8))}
		}
		rs.Regions = append(rs.Regions, data.Region{ID: k, Poly: pg})
	}
	return rs
}

// TestResolveMatchesMerge: resolve merges into each region's stat what the
// per-fragment Merge fold gives (mergeResolve), in all four fields, bit for
// bit up to NaN payloads: for every aggregate, in both modes, with one to
// four workers, over small layers of overlapping regions, on canvases from 1×1 to
// several words a row, from pass-1 state blended from values that include
// NaN, ±Inf, −0, subnormals and ±1e300, with empty pixels. Each tile is
// resolved many times over, so every resolve also starts from the state the
// one before left.
func TestResolveMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030, 1e300, -1e300}
	ctx := context.Background()
	dev := gpu.New()
	world := geom.BBox{MaxX: 100, MaxY: 100}
	for si, size := range [][2]int{{1, 1}, {1, 4}, {5, 1}, {7, 3}, {64, 2}, {130, 5}, {70, 40}} {
		w, h := size[0], size[1]
		layer := resolveLayer(rng)
		polys := make([]geom.Polygon, layer.Len())
		for k := range polys {
			polys[k] = layer.Regions[k].Poly
		}
		c, err := dev.NewCanvas(world, w, h)
		if err != nil {
			t.Fatal(err)
		}
		m := c.PixelMap()
		for mi, mode := range []Mode{Approximate, Accurate} {
			rj := NewRasterJoin(WithDevice(dev), WithMode(mode), WithWorkers(1+(2*si+mi)%4))
			for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
				tl, err := rj.newTile(ctx, c, layer, agg)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 60; trial++ {
					for i := rng.Intn(3 * w * h); i > 0; i-- {
						v := special[rng.Intn(len(special))]
						if rng.Intn(2) == 0 {
							v = rng.NormFloat64() * 100
						}
						x, y := rng.Float64()*110-5, rng.Float64()*110-5
						if px, py, ok := m.Map(x, y); ok {
							tl.shade(px, py, x, y, v)
						}
					}
					prior := make([]RegionStat, layer.Len())
					for k := range prior {
						if rng.Intn(2) == 0 {
							prior[k].Observe(rng.NormFloat64())
						}
					}
					want := mergeResolve(c, tl, polys)
					for k := range want {
						p := prior[k]
						p.Merge(want[k])
						want[k] = p
					}
					got := append([]RegionStat(nil), prior...)
					if err := tl.resolve(ctx, got); err != nil {
						t.Fatal(err)
					}
					for k := range want {
						if !statBits(got[k], want[k]) {
							t.Fatalf("%dx%d %v %v trial %d region %d: resolve %+v, want %+v",
								w, h, mode, agg, trial, k, got[k], want[k])
						}
					}
				}
				tl.release(true)
			}
		}
		c.Release()
	}
}

// halves is a ScatterPlan of two shards cut at world x = cut, each walking
// every block of the source and keeping the points on its side.
type halves struct {
	r      *RasterJoin
	cut    float64
	blocks []int
}

func (p halves) Cuts() []float64 { return []float64{p.cut} }

func (p halves) Scatter(ctx context.Context, spec *ShardSpec) ([]*ShardPartial, error) {
	lo, err := p.r.ShardPointPass(ctx, spec, math.Inf(-1), p.cut, p.blocks)
	if err != nil {
		return nil, err
	}
	hi, err := p.r.ShardPointPass(ctx, spec, p.cut, math.Inf(1), p.blocks)
	if err != nil {
		return nil, err
	}
	return []*ShardPartial{lo, hi}, nil
}

// requireClean fails unless tl is as newTile left it: count and sum texels
// 0, min/max texels at their ±Inf identity, and the hit bitmap, marks,
// bins, observation lists and per-region scratch empty.
func requireClean(t *testing.T, tl *tile, label string) {
	t.Helper()
	for _, tex := range []struct {
		t  *gpu.Texture
		id float64
	}{{tl.count, 0}, {tl.sum, 0}, {tl.min, math.Inf(1)}, {tl.max, math.Inf(-1)}} {
		if tex.t == nil {
			continue
		}
		for i, v := range tex.t.Data {
			if math.Float64bits(v) != math.Float64bits(tex.id) {
				t.Fatalf("%s: texel %d holds %v, want %v", label, i, v, tex.id)
			}
		}
	}
	hit, _ := tl.hit.Words()
	for i, w := range hit {
		if w != 0 {
			t.Fatalf("%s: hit word %d left %#x", label, i, w)
		}
	}
	for i, w := range tl.marks {
		if w != 0 {
			t.Fatalf("%s: marks word %d left %#x", label, i, w)
		}
	}
	for s, n := range tl.n {
		if n != 0 {
			t.Fatalf("%s: bin %d left %d observations", label, s, n)
		}
	}
	if len(tl.touched) != 0 {
		t.Fatalf("%s: %d touched slots left", label, len(tl.touched))
	}
	for y, row := range tl.rows {
		if len(row) != 0 {
			t.Fatalf("%s: row %d left %d observations", label, y, len(row))
		}
	}
	for k, s := range tl.local {
		if s != (RegionStat{}) {
			t.Fatalf("%s: region %d scratch left %+v", label, k, s)
		}
	}
}

// TestResolveLeavesTileClean: after the tile body of a join, a scattered
// join and a series — every aggregate, both modes — the tile is as newTile
// left it, before its textures go back to the pool: resolve clears all it
// reads, so no clear of a texture, bitmap or list is needed between uses.
func TestResolveLeavesTileClean(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 20_000
	ps := &data.PointSet{Name: "clean", X: make([]float64, n), Y: make([]float64, n), T: make([]int64, n)}
	v := make([]float64, n)
	for i := range v {
		ps.X[i], ps.Y[i], ps.T[i] = rng.Float64()*100, rng.Float64()*100, int64(i%1000)
		v[i] = rng.NormFloat64() * 10
	}
	ps.Attrs = []data.Column{{Name: "v", Values: v}}
	ps.SortByTime()
	layer := resolveLayer(rng)
	ctx := context.Background()
	blocks := make([]int, ps.Source().NumBlocks())
	for b := range blocks {
		blocks[b] = b
	}
	for _, mode := range []Mode{Approximate, Accurate} {
		rj := NewRasterJoin(WithResolution(150), WithMode(mode))
		for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
			req := Request{Points: ps, Regions: layer, Agg: agg}
			if agg.NeedsAttr() {
				req.Attr = "v"
			}
			series := req
			series.Time = &TimeFilter{Start: 0, End: 1000}
			for _, c := range []struct {
				name string
				req  Request
				bins int
				scan bool
				body tileBody
			}{
				{"join", req, 1, true, joinTile(ctx, req, nil)},
				{"scattered", req, 1, false, joinTile(ctx, req, halves{rj, 37.5, blocks})},
				{"series", series, 5, true, seriesTile(ctx, 0, 1000, 5)},
			} {
				label := fmt.Sprintf("%v/%v/%s", mode, agg, c.name)
				tiles := 0
				out, err := rj.tileLoop(ctx, c.req, c.bins, c.scan, func(tl *tile, sc *Scan, attrIdx int, out []*Result) error {
					if err := c.body(tl, sc, attrIdx, out); err != nil {
						return err
					}
					if mode == Accurate && tl.nobs == 0 {
						t.Fatalf("%s: no boundary observations; the test checks nothing", label)
					}
					requireClean(t, tl, label)
					tiles++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if tiles != 1 || out[0].TotalCount() == 0 {
					t.Fatalf("%s: %d tiles, first bin's count %d", label, tiles, out[0].TotalCount())
				}
			}
		}
	}
}
