package core_test

// Property tests for the parallel passes and the region span cache: at any
// worker count, and on warm or cold span caches, every joiner must produce
// bit-identical results to the sequential/cold path. The
// cancellation tests assert the abort hygiene contract (pool drained, no
// goroutines leaked) holds for the parallel path too.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
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

// TestParallelWorkersBitIdentical: the points-first pipeline must return
// bit-identical results at any worker count, for every aggregation kind in
// both modes, with the span cache enabled and disabled.
func TestParallelWorkersBitIdentical(t *testing.T) {
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
				core.WithWorkers(1))
			want, err := seq.JoinContext(context.Background(), req)
			if err != nil {
				t.Fatalf("%v/%v sequential: %v", mode, tc.agg, err)
			}
			for _, workers := range []int{2, 3, 7} {
				for _, cacheBytes := range []int64{0, gpu.DefaultSpanCacheBytes} {
					dev := gpu.New(gpu.WithSpanCacheBytes(cacheBytes))
					par := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(mode),
						core.WithResolution(256), core.WithWorkers(workers))
					got, err := par.JoinContext(context.Background(), req)
					if err != nil {
						t.Fatalf("%v/%v workers=%d: %v", mode, tc.agg, workers, err)
					}
					statsBitIdentical(t, got.Stats, want.Stats, par.Name())
				}
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

	cold, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st := dev.SpanCache().Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cold join did not populate the span cache: %+v", st)
	}
	warm, err := rj.JoinContext(context.Background(), req)
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
	want, err := off.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	statsBitIdentical(t, cold.Stats, want.Stats, "cached vs uncached")
}

// TestParallelSeriesJoinAcrossWorkers: series results are bit-identical at
// any worker count, warm or cold cache (run under -race in CI).
func TestParallelSeriesJoinAcrossWorkers(t *testing.T) {
	ps, rs := scene(60_000, 8, 317)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		seq := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithWorkers(1))
		want, err := seq.SeriesJoinContext(context.Background(), req, 0, int64(ps.Len()), 6)
		if err != nil {
			t.Fatal(err)
		}
		par := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithWorkers(4))
		for round := 0; round < 2; round++ { // cold then warm span cache
			got, err := par.SeriesJoinContext(context.Background(), req, 0, int64(ps.Len()), 6)
			if err != nil {
				t.Fatal(err)
			}
			for b := range want {
				statsBitIdentical(t, got[b].Stats, want[b].Stats, "series bin")
			}
		}
	}
}

// TestParallelFlowJoinAcrossWorkers: the OD pass folds one partial matrix
// per point range and the matrix is integer-valued, so the merge is exact —
// identical at any worker count, unbatched and batched.
func TestParallelFlowJoinAcrossWorkers(t *testing.T) {
	ps, rs := flowScene(20_000, 8, 331)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count,
		Filters: []core.Filter{{Attr: "v", Min: 1, Max: 9}}}
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		seq := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
			core.WithWorkers(1))
		want, err := seq.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 5, 7} {
			for _, batch := range []int{0, 1000} {
				par := core.NewRasterJoin(core.WithMode(mode), core.WithResolution(256),
					core.WithWorkers(workers), core.WithPointBatch(batch))
				got, err := par.FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
				if err != nil {
					t.Fatal(err)
				}
				flowsEqual(t, got, want, fmt.Sprintf("%s workers=%d batch=%d", mode, workers, batch))
			}
		}
	}
}

// flowsEqual requires two OD matrices and their tallies to be equal.
func flowsEqual(t *testing.T, got, want *core.FlowResult, context string) {
	t.Helper()
	if got.Dropped != want.Dropped || got.Filtered != want.Filtered {
		t.Fatalf("%s: dropped/filtered %d/%d, want %d/%d", context,
			got.Dropped, got.Filtered, want.Dropped, want.Filtered)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s: %d OD cells, want %d", context, len(got.Counts), len(want.Counts))
	}
	for cell, v := range want.Counts {
		if got.Counts[cell] != v {
			t.Fatalf("%s: cell %d = %d, want %d", context, cell, got.Counts[cell], v)
		}
	}
}

// TestParallelJoinCancelMidPass: canceling an accurate join with workers
// mid-point-pass returns context.Canceled, leaks nothing, and leaves
// the device pool drained — with the span cache enabled, so compiled spans
// don't pin pool resources. A per-batch latency fault stretches the pass to
// tens of milliseconds, so the cancel below lands mid-pass even on one P,
// where an unslowed 200 k-point join can finish before the poll sees its
// first batch.
func TestParallelJoinCancelMidPass(t *testing.T) {
	ps, rs := scene(200_000, 16, 347)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	dev := gpu.New()
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
		core.WithResolution(1024), core.WithPointBatch(8192), core.WithWorkers(4))

	baseline := runtime.NumGoroutine()
	tr := trace.New("test")
	reg := fault.New(7)
	reg.Set("core.pointpass", fault.Rule{Prob: 1, Kind: fault.Latency, Delay: 2 * time.Millisecond})
	ctx, cancel := context.WithCancel(trace.NewContext(fault.NewContext(context.Background(), reg), tr))
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
	got, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(1024),
		core.WithWorkers(1)).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	statsBitIdentical(t, got.Stats, want.Stats, "post-cancel reuse")
	requireDevDrained(t, dev, "after post-cancel reuse")
}
