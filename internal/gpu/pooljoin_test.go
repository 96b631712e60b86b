package gpu_test

// Pool hygiene across joins. A join that completes releases its textures
// marked with the value every texel holds, and the next join takes them
// without a clear; these tests pin that a mark is never wrong, whatever the
// use before it did: ran to completion, stopped at an injected fault or a
// cancellation in pass 1 or in resolve, or drew on a texture outside a join.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/gpu"
)

// hygieneScene is 20 000 points over [0, 100]², timestamps 0–999 in order
// and a normal attribute v, and 12 Voronoi regions over the window.
func hygieneScene() (*data.PointSet, *data.RegionSet) {
	rng := rand.New(rand.NewSource(43))
	n := 20_000
	ps := &data.PointSet{Name: "hygiene", X: make([]float64, n), Y: make([]float64, n), T: make([]int64, n)}
	v := make([]float64, n)
	for i := range v {
		ps.X[i], ps.Y[i], ps.T[i] = rng.Float64()*100, rng.Float64()*100, int64(i*1000/n)
		v[i] = rng.NormFloat64() * 10
	}
	ps.Attrs = []data.Column{{Name: "v", Values: v}}
	ps.SortByTime()
	rs := data.VoronoiRegions("hygiene", geom.BBox{MaxX: 100, MaxY: 100}, 12, 44,
		data.VoronoiOptions{JitterFrac: 0.1})
	return ps, rs
}

// halves is a ScatterPlan of two shards cut at world x = cut.
type halves struct {
	r      *core.RasterJoin
	cut    float64
	blocks []int
}

func (p halves) Cuts() []float64 { return []float64{p.cut} }

func (p halves) Scatter(ctx context.Context, spec *core.ShardSpec) ([]*core.ShardPartial, error) {
	lo, err := p.r.ShardPointPass(ctx, spec, math.Inf(-1), p.cut, p.blocks)
	if err != nil {
		return nil, err
	}
	hi, err := p.r.ShardPointPass(ctx, spec, p.cut, math.Inf(1), p.blocks)
	if err != nil {
		return nil, err
	}
	return []*core.ShardPartial{lo, hi}, nil
}

// shape is one join entry point over the tile loop.
type shape struct {
	name string
	run  func(ctx context.Context, rj *core.RasterJoin, req core.Request) ([]*core.Result, error)
}

func shapes(ps *data.PointSet) []shape {
	blocks := make([]int, ps.Source().NumBlocks())
	for b := range blocks {
		blocks[b] = b
	}
	one := func(res *core.Result, err error) ([]*core.Result, error) { return []*core.Result{res}, err }
	return []shape{
		{"join", func(ctx context.Context, rj *core.RasterJoin, req core.Request) ([]*core.Result, error) {
			return one(rj.JoinContext(ctx, req))
		}},
		{"scattered", func(ctx context.Context, rj *core.RasterJoin, req core.Request) ([]*core.Result, error) {
			return one(rj.JoinScattered(ctx, req, halves{rj, 37.5, blocks}))
		}},
		{"series", func(ctx context.Context, rj *core.RasterJoin, req core.Request) ([]*core.Result, error) {
			return rj.SeriesJoinContext(ctx, req, 0, 1000, 4)
		}},
	}
}

var aggs = []core.Agg{core.Count, core.Sum, core.Avg, core.Min, core.Max}

func request(ps *data.PointSet, rs *data.RegionSet, agg core.Agg) core.Request {
	req := core.Request{Points: ps, Regions: rs, Agg: agg}
	if agg.NeedsAttr() {
		req.Attr = "v"
	}
	return req
}

// joiner is the raster joiner every test here runs: one worker, so a
// context's polls come in one order, and small point batches.
func joiner(dev *gpu.Device, mode core.Mode) *core.RasterJoin {
	return core.NewRasterJoin(core.WithDevice(dev), core.WithMode(mode), core.WithResolution(96),
		core.WithPointBatch(700), core.WithWorkers(1))
}

// polls is a context whose Err turns to context.Canceled after left polls
// and counts the polls it answers.
type polls struct {
	context.Context
	left, asked atomic.Int64
}

func (c *polls) Err() error {
	c.asked.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// sameBits fails unless got and want agree in every field of every region
// of every bin, bit for bit.
func sameBits(t *testing.T, got, want []*core.Result, label string) {
	t.Helper()
	bits := math.Float64bits
	for b := range want {
		for k, w := range want[b].Stats {
			g := got[b].Stats[k]
			if g.Count != w.Count || bits(g.Sum) != bits(w.Sum) || bits(g.Min) != bits(w.Min) || bits(g.Max) != bits(w.Max) {
				t.Fatalf("%s: bin %d region %d is %+v, want %+v", label, b, k, g, w)
			}
		}
	}
}

// requireMarks fails unless every marked texture in dev's pool holds its
// mark and no texture is still acquired; it returns the marked count.
func requireMarks(t *testing.T, dev *gpu.Device, label string) int {
	t.Helper()
	n, err := gpu.FreeMarks(dev)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if live := dev.LiveTextures(); live != 0 {
		t.Fatalf("%s: %d textures still acquired", label, live)
	}
	return n
}

// TestPooledJoinsAfterFaults: on one device, joins, scattered joins and
// series of every aggregate in both modes are stopped at a
// `core.pointpass` fault in pass 1 and at cancellations swept from pass 1
// through the last poll of resolve. After each stop the pool's marks hold,
// and a join of another aggregate on the reused pool gives the bits a fresh
// device gives; at the end so does every aggregate of every shape.
func TestPooledJoinsAfterFaults(t *testing.T) {
	ps, rs := hygieneScene()
	shs := shapes(ps)
	bg := context.Background()
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		want := make([][][]*core.Result, len(shs))
		for si, sh := range shs {
			for _, agg := range aggs {
				res, err := sh.run(bg, joiner(gpu.New(), mode), request(ps, rs, agg))
				if err != nil {
					t.Fatal(err)
				}
				want[si] = append(want[si], res)
			}
		}
		dev := gpu.New()
		rj := joiner(dev, mode)
		check := func(si, ai int, label string) {
			t.Helper()
			got, err := shs[si].run(bg, rj, request(ps, rs, aggs[ai]))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameBits(t, got, want[si][ai], label)
			if requireMarks(t, dev, label) == 0 {
				t.Fatalf("%s: a completed join left no marked texture", label)
			}
		}
		for si, sh := range shs {
			for ai, agg := range aggs {
				req := request(ps, rs, agg)
				label := fmt.Sprintf("%v/%s/%v", mode, sh.name, agg)
				// The probe counts the polls of a run on a warm span cache, as
				// every run after the first is.
				probe := &polls{Context: bg}
				probe.left.Store(math.MaxInt64)
				for _, ctx := range []context.Context{bg, probe} {
					if _, err := sh.run(ctx, rj, req); err != nil {
						t.Fatal(err)
					}
				}
				total := probe.asked.Load()
				// Early cuts land in pass 1; the last dozen polls are the
				// last resolve's (its row polls and its claims).
				cuts := []int64{0, 1, total / 3, total / 2}
				for c := max(total-12, 2); c < total; c++ {
					cuts = append(cuts, c)
				}
				for i, cut := range cuts {
					ctx := &polls{Context: bg}
					ctx.left.Store(cut)
					if _, err := sh.run(ctx, rj, req); !errors.Is(err, context.Canceled) {
						t.Fatalf("%s canceled at poll %d of %d: err %v", label, cut, total, err)
					}
					stop := fmt.Sprintf("%s canceled at poll %d of %d", label, cut, total)
					requireMarks(t, dev, stop)
					next := (ai + 1 + i) % len(aggs)
					check((si+i)%len(shs), next, stop+", then "+aggs[next].String())
				}
				for seed := int64(1); seed <= 3; seed++ {
					reg := fault.New(seed)
					reg.Set("core.pointpass", fault.Rule{Prob: 0.3, Kind: fault.Error})
					if _, err := sh.run(fault.NewContext(bg, reg), rj, req); !errors.Is(err, fault.ErrInjected) {
						t.Fatalf("%s with a pass-1 fault (seed %d): err %v", label, seed, err)
					}
					stop := fmt.Sprintf("%s after a pass-1 fault (seed %d)", label, seed)
					requireMarks(t, dev, stop)
					check(si, (ai+int(seed))%len(aggs), stop)
				}
			}
		}
		for si, sh := range shs {
			for ai, agg := range aggs {
				check(si, ai, fmt.Sprintf("%v/%s/%v on the reused pool", mode, sh.name, agg))
			}
		}
	}
}

// TestPooledTextureDrawnOutsideJoin: a texture acquired, drawn on through a
// canvas and released, as the benchmark's point-pass timing does, comes back
// all zero, and the joins after it keep their bits.
func TestPooledTextureDrawnOutsideJoin(t *testing.T) {
	ps, rs := hygieneScene()
	bg := context.Background()
	req := request(ps, rs, core.Sum)
	want, err := joiner(gpu.New(), core.Accurate).JoinContext(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpu.New()
	rj := joiner(dev, core.Accurate)
	res, err := rj.JoinContext(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, []*core.Result{res}, []*core.Result{want}, "first join")
	if n := requireMarks(t, dev, "after the first join"); n != 2 {
		t.Fatalf("%d marked textures after a SUM join, want 2", n)
	}

	w, h := res.CanvasW, res.CanvasH
	tex := dev.AcquireTexture(w, h)
	c, err := dev.NewCanvas(rs.Bounds(), w, h)
	if err != nil {
		t.Fatal(err)
	}
	c.DrawPoints(ps.Len(), func(i int) (float64, float64) { return ps.X[i], ps.Y[i] },
		func(px, py, _ int) { tex.Add(px, py, 1) })
	c.Release()
	dev.ReleaseTexture(tex)
	requireMarks(t, dev, "after the draw")

	a, b := dev.AcquireTexture(w, h), dev.AcquireTexture(w, h)
	for _, x := range [...]*gpu.Texture{a, b} {
		for i, v := range x.Data {
			if v != 0 {
				t.Fatalf("texel %d of a texture acquired after the draw holds %v", i, v)
			}
		}
	}
	dev.ReleaseTexture(a)
	dev.ReleaseTexture(b)

	for i := 0; i < 2; i++ {
		res, err := rj.JoinContext(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, []*core.Result{res}, []*core.Result{want}, fmt.Sprintf("join %d after the draw", i))
	}
}
