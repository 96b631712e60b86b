package shard_test

// The headline property of sharded execution: at ANY shard count the
// coordinator's result is bit-identical — Count exactly, Sum/Min/Max by
// float64 bit pattern — to the plain single-process raster join. These
// tests exercise both modes, all five aggregates, filtered requests (the
// needPred path), tiny point batches, and cold and warm span caches.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/shard"
)

func scene(np, nr int, seed int64) (*data.PointSet, *data.RegionSet) {
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{
		Name: "pts",
		X:    make([]float64, np),
		Y:    make([]float64, np),
		T:    make([]int64, np),
	}
	vals := make([]float64, np)
	for i := 0; i < np; i++ {
		if rng.Float64() < 0.5 {
			ps.X[i] = 300 + rng.NormFloat64()*150
			ps.Y[i] = 600 + rng.NormFloat64()*150
		} else {
			ps.X[i] = rng.Float64() * 1000
			ps.Y[i] = rng.Float64() * 1000
		}
		ps.X[i] = math.Min(999.9, math.Max(0.1, ps.X[i]))
		ps.Y[i] = math.Min(999.9, math.Max(0.1, ps.Y[i]))
		ps.T[i] = int64(i)
		vals[i] = 1 + rng.Float64()*9
	}
	ps.Attrs = []data.Column{{Name: "v", Values: vals}}
	rs := data.VoronoiRegions("nbhd", bounds, nr, seed+1,
		data.VoronoiOptions{JitterFrac: 0.08})
	return ps, rs
}

func resultsBitIdentical(t *testing.T, got, want *core.Result, context string) {
	t.Helper()
	if got.Algorithm != want.Algorithm {
		t.Fatalf("%s: algorithm %q, want %q", context, got.Algorithm, want.Algorithm)
	}
	if got.Tiles != want.Tiles {
		t.Fatalf("%s: tiles %d, want %d", context, got.Tiles, want.Tiles)
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d vs %d regions", context, len(got.Stats), len(want.Stats))
	}
	for k := range got.Stats {
		g, w := got.Stats[k], want.Stats[k]
		if g.Count != w.Count {
			t.Fatalf("%s: region %d count %d, want %d", context, k, g.Count, w.Count)
		}
		if math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			t.Fatalf("%s: region %d sum %v, want %v (not bit-identical)", context, k, g.Sum, w.Sum)
		}
		if math.Float64bits(g.Min) != math.Float64bits(w.Min) ||
			math.Float64bits(g.Max) != math.Float64bits(w.Max) {
			t.Fatalf("%s: region %d min/max %v/%v, want %v/%v",
				context, k, g.Min, g.Max, w.Min, w.Max)
		}
	}
}

var shardCounts = []int{1, 2, 4, 8}

// TestShardedJoinBitIdentical is the core equivalence matrix: both modes,
// all five aggregates, every shard count, against the plain local path on
// the same device (so span caches and texture pools are shared exactly as
// they are inside one server process).
func TestShardedJoinBitIdentical(t *testing.T) {
	ps, rs := scene(30_000, 10, 307)
	aggs := []struct {
		agg  core.Agg
		attr string
	}{
		{core.Count, ""}, {core.Sum, "v"}, {core.Avg, "v"},
		{core.Min, "v"}, {core.Max, "v"},
	}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		dev := gpu.New()
		rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(mode),
			core.WithResolution(256))
		for _, a := range aggs {
			req := core.Request{Points: ps, Regions: rs, Agg: a.agg, Attr: a.attr}
			want, err := rj.JoinContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range shardCounts {
				co := shard.New(rj, n)
				got, err := co.JoinContext(context.Background(), req)
				if err != nil {
					t.Fatalf("mode %v agg %v shards %d: %v", mode, a.agg, n, err)
				}
				ctx := "mode " + rj.Name() + " agg " + a.agg.String()
				resultsBitIdentical(t, got, want, ctx)
			}
		}
		if n := dev.LiveCanvases() + dev.LiveTextures(); n != 0 {
			t.Fatalf("device not drained after matrix: %d live objects", n)
		}
	}
}

// TestShardedJoinBitIdenticalFiltered drives the needPred and time-window
// paths: attribute filters plus a time filter mean the shard pass must
// evaluate the same predicates in the same order as the local scan.
func TestShardedJoinBitIdenticalFiltered(t *testing.T) {
	ps, rs := scene(20_000, 8, 409)
	req := core.Request{
		Points: ps, Regions: rs, Agg: core.Sum, Attr: "v",
		Filters: []core.Filter{{Attr: "v", Min: 2.5, Max: 8.5}},
		Time:    &core.TimeFilter{Start: 1_000, End: 18_000},
	}
	dev := gpu.New()
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
		core.WithResolution(128))
	want, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalCount() == 0 {
		t.Fatal("filters swallowed all points; test is vacuous")
	}
	for _, n := range shardCounts {
		got, err := shard.New(rj, n).JoinContext(context.Background(), req)
		if err != nil {
			t.Fatalf("shards %d: %v", n, err)
		}
		resultsBitIdentical(t, got, want, "filtered")
	}
}

// TestShardedJoinBitIdenticalSmallBatches shrinks the point batch so shard
// passes interleave many fault/cancel checkpoints, and disables the span
// cache so both paths rasterize cold. Identity must be unaffected.
func TestShardedJoinBitIdenticalSmallBatches(t *testing.T) {
	ps, rs := scene(8_000, 6, 511)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	dev := gpu.New(gpu.WithSpanCacheBytes(0))
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
		core.WithResolution(64), core.WithPointBatch(128))
	want, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shardCounts {
		got, err := shard.New(rj, n).JoinContext(context.Background(), req)
		if err != nil {
			t.Fatalf("shards %d: %v", n, err)
		}
		resultsBitIdentical(t, got, want, "small batches, cold spans")
	}
}

// TestLayoutOwnershipPartition checks the foundation of the identity
// argument directly: every point index is claimed by exactly one shard's
// (range, blocks) pair, at every shard count.
func TestLayoutOwnershipPartition(t *testing.T) {
	ps, _ := scene(25_000, 2, 719)
	src := ps.Source()
	for _, n := range shardCounts {
		lt := shard.Build(src, n)
		owners := make([]int, ps.Len())
		for i := 0; i < n; i++ {
			xlo, xhi := lt.Range(i)
			for _, b := range lt.Blocks[i] {
				lo, hi := src.BlockSpan(b)
				for j := lo; j < hi; j++ {
					if ps.X[j] >= xlo && ps.X[j] < xhi {
						owners[j]++
					}
				}
			}
		}
		for j, c := range owners {
			if c != 1 {
				t.Fatalf("shards %d: point %d owned by %d shards", n, j, c)
			}
		}
	}
}

// TestDeterministicFirstError fails the point pass of every shard and
// requires the error to name shard 0 every time — never whichever
// goroutine lost the race — and to carry the injected error, not a
// silently partial result.
func TestDeterministicFirstError(t *testing.T) {
	ps, rs := scene(5_000, 4, 907)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	rj := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(64))
	co := shard.New(rj, 4)
	reg := fault.New(1)
	reg.Set("core.pointpass", fault.Rule{Prob: 1, Kind: fault.Error})
	ctx := fault.NewContext(context.Background(), reg)
	for trial := 0; trial < 20; trial++ {
		res, err := co.JoinContext(ctx, req)
		if err == nil || res != nil {
			t.Fatalf("trial %d: every shard failed, join returned res=%v err=%v", trial, res, err)
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("trial %d: error %v, want the injected fault", trial, err)
		}
		if !strings.Contains(err.Error(), "shard 0:") {
			t.Fatalf("trial %d: error %q does not name lowest failed shard 0", trial, err)
		}
	}
	if _, err := co.JoinContext(context.Background(), req); err != nil {
		t.Fatalf("without faults: %v", err)
	}
}
