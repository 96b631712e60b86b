package core_test

// Property tests for the parallel sharded point pass and the region span
// cache: at any worker count, and on warm or cold span caches, every joiner
// must produce bit-identical results to the sequential/cold path. The
// cancellation tests assert the abort hygiene contract (pool drained, no
// goroutines leaked) holds for the parallel path too.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/trace"
)

// statsBitIdentical requires exact equality — including float bit patterns —
// between two result stat slices.
func statsBitIdentical(t *testing.T, got, want []core.RegionStat, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d regions", context, len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
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

// TestPointWorkersBitIdentical: the points-first pipeline must return
// bit-identical results at any -point-workers setting, for every
// aggregation kind in both modes, with the span cache enabled and disabled.
func TestPointWorkersBitIdentical(t *testing.T) {
	ps, rs := scene(30_000, 10, 307)
	cases := []struct {
		agg  core.Agg
		attr string
	}{
		{core.Count, ""}, {core.Sum, "v"}, {core.Avg, "v"}, {core.Min, "v"}, {core.Max, "v"},
	}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		for _, tc := range cases {
			req := core.Request{Points: ps, Regions: rs, Agg: tc.agg, Attr: tc.attr}
			seq := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
				core.WithPointWorkers(1))
			want, err := seq.Join(req)
			if err != nil {
				t.Fatalf("%v/%v sequential: %v", mode, tc.agg, err)
			}
			for _, workers := range []int{2, 3, 7} {
				for _, cacheBytes := range []int64{0, gpu.DefaultSpanCacheBytes} {
					dev := gpu.New(gpu.WithSpanCacheBytes(cacheBytes))
					par := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(mode),
						core.WithResolution(256), core.WithPointWorkers(workers))
					got, err := par.Join(req)
					if err != nil {
						t.Fatalf("%v/%v workers=%d: %v", mode, tc.agg, workers, err)
					}
					statsBitIdentical(t, got.Stats, want.Stats, par.Name())
				}
			}
		}
	}
}

// TestPolygonsFirstPointWorkers: the polygons-first pipeline shards its
// region-keyed accumulators per worker. Exact aggregates (COUNT/MIN/MAX)
// are identical at any worker count; SUM merges per-shard partials in shard
// order, so it is deterministic per worker count and numerically equal
// within float tolerance across counts.
func TestPolygonsFirstPointWorkers(t *testing.T) {
	ps, rs := scene(25_000, 8, 311)
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		for _, agg := range []core.Agg{core.Count, core.Min, core.Max, core.Sum} {
			attr := "v"
			if agg == core.Count {
				attr = ""
			}
			req := core.Request{Points: ps, Regions: rs, Agg: agg, Attr: attr}
			seq := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
				core.WithStrategy(core.PolygonsFirst), core.WithPointWorkers(1))
			want, err := seq.Join(req)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 5} {
				par := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
					core.WithStrategy(core.PolygonsFirst), core.WithPointWorkers(workers))
				got, err := par.Join(req)
				if err != nil {
					t.Fatal(err)
				}
				if agg == core.Count {
					statsBitIdentical(t, got.Stats, want.Stats, par.Name())
				} else {
					// Min/Max aggregates are exact per shard, but Observe
					// also folds a float Sum, which the shard merge
					// reassociates — compare it with tolerance like SUM.
					statsExactlyEqual(t, got, want, par.Name())
					for k := range got.Stats {
						if math.Float64bits(got.Stats[k].Min) != math.Float64bits(want.Stats[k].Min) ||
							math.Float64bits(got.Stats[k].Max) != math.Float64bits(want.Stats[k].Max) {
							t.Fatalf("%s: region %d min/max not bit-identical", par.Name(), k)
						}
					}
				}
				// Determinism: the same worker count must reproduce itself
				// bit-for-bit.
				again, err := par.Join(req)
				if err != nil {
					t.Fatal(err)
				}
				statsBitIdentical(t, again.Stats, got.Stats, par.Name()+" rerun")
			}
		}
	}
}

// TestSpanCacheWarmPathBitIdentical: a warm span cache must replay to
// exactly the cold result, and the cache must actually be hit.
func TestSpanCacheWarmPathBitIdentical(t *testing.T) {
	ps, rs := scene(15_000, 12, 313)
	dev := gpu.New()
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
		core.WithResolution(512))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}

	cold, err := rj.Join(req)
	if err != nil {
		t.Fatal(err)
	}
	st := dev.SpanCache().Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cold join did not populate the span cache: %+v", st)
	}
	warm, err := rj.Join(req)
	if err != nil {
		t.Fatal(err)
	}
	if hits := dev.SpanCache().Stats().Hits; hits == 0 {
		t.Fatal("warm join did not hit the span cache")
	}
	statsBitIdentical(t, warm.Stats, cold.Stats, "warm vs cold")

	// And both must match a device with the cache disabled.
	off := core.NewRasterJoin(core.WithDevice(gpu.New(gpu.WithSpanCacheBytes(0))),
		core.WithMode(core.Accurate), core.WithResolution(512))
	want, err := off.Join(req)
	if err != nil {
		t.Fatal(err)
	}
	statsBitIdentical(t, cold.Stats, want.Stats, "cached vs uncached")
}

// TestSeriesJoinAcrossPointWorkers: series results are bit-identical at any
// worker count, warm or cold cache (run under -race in CI).
func TestSeriesJoinAcrossPointWorkers(t *testing.T) {
	ps, rs := scene(60_000, 8, 317)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		seq := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithPointWorkers(1))
		want, err := seq.SeriesJoinContext(context.Background(), req, 0, int64(ps.Len()), 6)
		if err != nil {
			t.Fatal(err)
		}
		par := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithPointWorkers(4))
		for round := 0; round < 2; round++ { // cold then warm span cache
			got, err := par.SeriesJoinContext(context.Background(), req, 0, int64(ps.Len()), 6)
			if err != nil {
				t.Fatal(err)
			}
			for b := range want.Stats {
				statsBitIdentical(t, got.Stats[b], want.Stats[b], "series bin")
			}
		}
	}
}

// TestFlowJoinAcrossPointWorkers: the OD matrix is integer-valued, so the
// per-worker partial merge is exact — identical at any worker count.
func TestFlowJoinAcrossPointWorkers(t *testing.T) {
	ps, rs := flowScene(20_000, 8, 331)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		seq := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithPointWorkers(1))
		want, err := seq.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
		if err != nil {
			t.Fatal(err)
		}
		par := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithPointWorkers(5))
		got, err := par.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dropped != want.Dropped || got.Filtered != want.Filtered {
			t.Fatalf("dropped/filtered %d/%d, want %d/%d",
				got.Dropped, got.Filtered, want.Dropped, want.Filtered)
		}
		if len(got.Counts) != len(want.Counts) {
			t.Fatalf("%d OD cells, want %d", len(got.Counts), len(want.Counts))
		}
		for cell, v := range want.Counts {
			if got.Counts[cell] != v {
				t.Fatalf("cell %d = %d, want %d", cell, got.Counts[cell], v)
			}
		}
	}
}

// TestMultiAndStreamAcrossPointWorkers: the multi-aggregate and streaming
// pipelines ride the same parallel batched point pass.
func TestMultiAndStreamAcrossPointWorkers(t *testing.T) {
	ps, rs := scene(20_000, 8, 337)
	specs := []core.AggSpec{{Agg: core.Count}, {Agg: core.Sum, Attr: "v"}}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		seq := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithPointWorkers(1))
		wantMulti, err := seq.MultiJoinContext(context.Background(), core.Request{Points: ps, Regions: rs}, specs)
		if err != nil {
			t.Fatal(err)
		}
		par := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithPointWorkers(4))
		gotMulti, err := par.MultiJoinContext(context.Background(), core.Request{Points: ps, Regions: rs}, specs)
		if err != nil {
			t.Fatal(err)
		}
		for s := range wantMulti {
			statsBitIdentical(t, gotMulti[s].Stats, wantMulti[s].Stats, "multi spec")
		}

		ws, err := seq.NewStream(rs, core.Sum, "v", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.AddContext(context.Background(), ps); err != nil {
			t.Fatal(err)
		}
		wantStream, err := ws.FinalizeContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		gs, err := par.NewStream(rs, core.Sum, "v", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := gs.AddContext(context.Background(), ps); err != nil {
			t.Fatal(err)
		}
		gotStream, err := gs.FinalizeContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		statsBitIdentical(t, gotStream.Stats, wantStream.Stats, "stream")
	}
}

// TestParallelJoinCancelMidPass: canceling an accurate join with point
// workers mid-point-pass returns context.Canceled, leaks nothing, and leaves
// the device pool drained — with the span cache enabled, so compiled spans
// don't pin pool resources.
func TestParallelJoinCancelMidPass(t *testing.T) {
	ps, rs := scene(200_000, 16, 347)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	dev := gpu.New()
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
		core.WithResolution(1024), core.WithPointBatch(8192), core.WithPointWorkers(4))

	baseline := runtime.NumGoroutine()
	tr := trace.New("test")
	ctx, cancel := context.WithCancel(trace.NewContext(context.Background(), tr))
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := rj.JoinContext(ctx, req)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Counters()["batches"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parallel join never submitted a point batch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled parallel join returned %v, want context.Canceled", err)
	}
	awaitGoroutines(t, baseline)
	requireDevDrained(t, dev, "after parallel cancel")

	// The device (and its now-warm span cache) must serve the same query
	// exactly afterwards.
	got, err := rj.Join(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(1024),
		core.WithPointWorkers(1)).Join(req)
	if err != nil {
		t.Fatal(err)
	}
	statsBitIdentical(t, got.Stats, want.Stats, "post-cancel reuse")
	requireDevDrained(t, dev, "after post-cancel reuse")
}
