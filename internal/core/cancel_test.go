package core_test

// Cancellation hygiene: an aborted query must return ctx.Err() promptly,
// leave no goroutines behind, and hand every canvas and pooled texture back
// to the device so the next query finds a fully reusable pool. These tests
// run under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/trace"
)

// awaitGoroutines polls until the process goroutine count settles at or
// below want (plus a small scheduler tolerance).
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= want+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, want <= %d", runtime.NumGoroutine(), want+2)
		}
		time.Sleep(time.Millisecond)
	}
}

func requireDevDrained(t *testing.T, dev *gpu.Device, context string) {
	t.Helper()
	if n := dev.LiveCanvases(); n != 0 {
		t.Fatalf("%s: %d canvases still live", context, n)
	}
	if n := dev.LiveTextures(); n != 0 {
		t.Fatalf("%s: %d textures still live", context, n)
	}
}

// TestJoinContextCancelMidJoin cancels an accurate raster join after its
// first point batch and verifies the abort contract end to end: the join
// returns the context's error, no worker goroutines outlive it, the device
// pool is drained, and an identical join on the same device afterwards is
// still exact.
func TestJoinContextCancelMidJoin(t *testing.T) {
	ps, rs := scene(200_000, 16, 211)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	dev := gpu.New()
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
		core.WithResolution(1024), core.WithPointBatch(512))

	baseline := runtime.NumGoroutine()

	// The trace's batch counter is the observable that the point pass is
	// underway — cancel lands mid-pass, not before the join starts.
	tr := trace.New("test")
	ctx, cancel := context.WithCancel(trace.NewContext(context.Background(), tr))
	defer cancel()

	type joined struct {
		res *core.Result
		err error
	}
	done := make(chan joined, 1)
	go func() {
		res, err := rj.JoinContext(ctx, req)
		done <- joined{res, err}
	}()

	waitBatch := time.Now().Add(5 * time.Second)
	for tr.Counters()["batches"] == 0 {
		if time.Now().After(waitBatch) {
			t.Fatal("join never submitted a point batch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	j := <-done
	if !errors.Is(j.err, context.Canceled) {
		t.Fatalf("canceled join returned err=%v, want context.Canceled", j.err)
	}
	if j.res != nil {
		t.Fatalf("canceled join returned a result")
	}
	awaitGoroutines(t, baseline)
	requireDevDrained(t, dev, "after cancel")

	// The same device must now serve a full join, and exactly: compare with
	// a join on a fresh device.
	got, err := rj.JoinContext(context.Background(), req)
	if err != nil {
		t.Fatalf("join after cancel: %v", err)
	}
	want, err := core.NewRasterJoin(core.WithMode(core.Accurate),
		core.WithResolution(1024)).Join(req)
	if err != nil {
		t.Fatal(err)
	}
	statsExactlyEqual(t, got, want, "reused device after cancel")
	requireDevDrained(t, dev, "after reuse")
}

// TestJoinContextPreExpiredDeadline: a deadline that has already passed
// aborts before any tile renders and still leaves the pool drained.
func TestJoinContextPreExpiredDeadline(t *testing.T) {
	ps, rs := scene(2_000, 6, 223)
	dev := gpu.New()
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithResolution(256))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := rj.JoinContext(ctx, core.Request{Points: ps, Regions: rs, Agg: core.Count})
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got (%v, %v), want (nil, context.DeadlineExceeded)", res, err)
	}
	requireDevDrained(t, dev, "after expired deadline")
}

// TestFlowJoinContextCancelReleasesResources: canceling a flow join
// mid-OD-pass returns context.Canceled, leaks no goroutine of its range
// fan-out, and hands its canvas back to the pool, which then serves the
// same flow exactly. A per-batch latency fault at the point-pass site
// stretches the pass so the cancel lands inside it even on one P.
func TestFlowJoinContextCancelReleasesResources(t *testing.T) {
	ps, rs := flowScene(200_000, 12, 227)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	dev := gpu.New()
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
		core.WithResolution(512), core.WithPointBatch(8192), core.WithWorkers(3))
	flow := func(ctx context.Context) (*core.FlowResult, error) {
		return rj.FlowJoinContext(ctx, req, data.DropoffXAttr, data.DropoffYAttr)
	}

	baseline := runtime.NumGoroutine()
	tr := trace.New("test")
	reg := fault.New(11)
	reg.Set("core.pointpass", fault.Rule{Prob: 1, Kind: fault.Latency, Delay: 2 * time.Millisecond})
	ctx, cancel := context.WithCancel(trace.NewContext(fault.NewContext(context.Background(), reg), tr))
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := flow(ctx)
		done <- err
	}()
	waitBatch := time.Now().Add(5 * time.Second)
	for tr.Counters()["batches"] == 0 {
		if time.Now().After(waitBatch) {
			t.Fatal("flow join never submitted a point batch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled flow join returned %v, want context.Canceled", err)
	}
	awaitGoroutines(t, baseline)
	requireDevDrained(t, dev, "after flow cancel")

	// The pool must still serve a complete flow, equal to a fresh device's.
	got, err := flow(context.Background())
	if err != nil {
		t.Fatalf("flow join after cancel: %v", err)
	}
	want, err := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(512)).
		FlowJoinContext(context.Background(), req, data.DropoffXAttr, data.DropoffYAttr)
	if err != nil {
		t.Fatal(err)
	}
	flowsEqual(t, got, want, "reused device after flow cancel")
	requireDevDrained(t, dev, "after flow reuse")
}

// TestSeriesJoinContextCancel: the per-bin series join frees its canvas and
// textures when canceled between bins.
func TestSeriesJoinContextCancel(t *testing.T) {
	ps, rs := scene(20_000, 8, 233)
	dev := gpu.New()
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithResolution(256))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	if _, err := rj.SeriesJoinContext(ctx, req, 0, int64(ps.Len()), 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled series join returned %v, want context.Canceled", err)
	}
	requireDevDrained(t, dev, "after series cancel")
}

// expiring is a context whose Err turns to context.Canceled after n polls,
// cancelling a compute deterministically at the n-th check.
type expiring struct {
	context.Context
	n atomic.Int64
}

func (c *expiring) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSeriesJoinCancelBetweenBins sweeps the cancellation point across a
// whole accurate series — span compile, interior banking, every bin's
// check and point batches — and requires each abort to return
// context.Canceled with the canvas and textures back in the pool; the
// series that run to completion on the reused pool stay bit-identical.
func TestSeriesJoinCancelBetweenBins(t *testing.T) {
	ps, rs := scene(5_000, 8, 239)
	dev := gpu.New(gpu.WithSpanCacheBytes(0))
	rj := core.NewRasterJoin(core.WithDevice(dev), core.WithResolution(128),
		core.WithMode(core.Accurate), core.WithPointBatch(500))
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	want, err := rj.SeriesJoinContext(context.Background(), req, 0, int64(ps.Len()), 6)
	if err != nil {
		t.Fatal(err)
	}
	canceled := 0
	for n := int64(0); n < 200; n += 3 {
		ctx := &expiring{Context: context.Background()}
		ctx.n.Store(n)
		got, err := rj.SeriesJoinContext(ctx, req, 0, int64(ps.Len()), 6)
		requireDevDrained(t, dev, fmt.Sprintf("after %d polls", n))
		if err == nil {
			for b := range want {
				statsBitIdentical(t, got[b].Stats, want[b].Stats, fmt.Sprintf("uncanceled at %d polls, bin %d", n, b))
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("series canceled after %d polls returned %v", n, err)
		}
		canceled++
	}
	if canceled < 10 {
		t.Fatalf("only %d of the sweep's series were canceled", canceled)
	}
}
