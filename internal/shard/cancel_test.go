package shard_test

// Coordinator cancellation hygiene: a cancel landing mid-scatter (while
// shard point passes are running) or a failure mid-gather (after the merge
// textures are acquired) must abort promptly, leak zero goroutines, return
// every canvas and texture to the device pool, and leave the joiner able to
// serve the identical query afterwards — at every shard count, under -race.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/shard"
	"repro/internal/trace"
)

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

func requireDrained(t *testing.T, dev *gpu.Device, context string) {
	t.Helper()
	if n := dev.LiveCanvases(); n != 0 {
		t.Fatalf("%s: %d canvases still live", context, n)
	}
	if n := dev.LiveTextures(); n != 0 {
		t.Fatalf("%s: %d textures still live", context, n)
	}
}

// TestScatterCancelMidPass cancels while shard point passes are in flight
// (observed via the shard.batches trace counter) and verifies the abort
// contract at every shard count.
func TestScatterCancelMidPass(t *testing.T) {
	ps, rs := scene(200_000, 12, 1021)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	for _, n := range shardCounts {
		dev := gpu.New()
		rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
			core.WithResolution(1024), core.WithPointBatch(512))
		co := shard.New(rj, n)
		baseline := runtime.NumGoroutine()

		tr := trace.New("test")
		ctx, cancel := context.WithCancel(trace.NewContext(context.Background(), tr))
		type joined struct {
			res *core.Result
			err error
		}
		done := make(chan joined, 1)
		go func() {
			res, err := co.JoinContext(ctx, req)
			done <- joined{res, err}
		}()
		waitBatch := time.Now().Add(5 * time.Second)
		for tr.Counters()["shard.batches"] == 0 {
			if time.Now().After(waitBatch) {
				t.Fatalf("shards %d: no shard batch ever ran", n)
			}
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
		j := <-done
		if !errors.Is(j.err, context.Canceled) {
			t.Fatalf("shards %d: canceled join returned err=%v, want context.Canceled", n, j.err)
		}
		if j.res != nil {
			t.Fatalf("shards %d: canceled join returned a result", n)
		}
		awaitGoroutines(t, baseline)
		requireDrained(t, dev, "after mid-scatter cancel")

		// The same coordinator must now serve the query, bit-identically to
		// the plain path.
		want, err := rj.JoinContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := co.JoinContext(context.Background(), req)
		if err != nil {
			t.Fatalf("shards %d after cancel: %v", n, err)
		}
		resultsBitIdentical(t, got, want, "post-cancel")
		requireDrained(t, dev, "after post-cancel join")
	}
}

// TestGatherFaultReleasesResources arms the shard.gather fault site — which
// fires after the merge textures are acquired — and verifies both the Error
// and Cancel kinds release everything, at every shard count.
func TestGatherFaultReleasesResources(t *testing.T) {
	ps, rs := scene(20_000, 8, 1117)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v"}
	for _, kind := range []fault.Kind{fault.Error, fault.Cancel} {
		for _, n := range shardCounts {
			dev := gpu.New()
			rj := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate),
				core.WithResolution(256))
			co := shard.New(rj, n)
			baseline := runtime.NumGoroutine()

			reg := fault.New(99)
			reg.Set("shard.gather", fault.Rule{Prob: 1, Kind: kind})
			ctx := fault.NewContext(context.Background(), reg)
			res, err := co.JoinContext(ctx, req)
			if err == nil || res != nil {
				t.Fatalf("kind %v shards %d: gather fault did not surface (res=%v err=%v)", kind, n, res, err)
			}
			if kind == fault.Cancel && !errors.Is(err, context.Canceled) {
				t.Fatalf("kind %v shards %d: err=%v, want context.Canceled", kind, n, err)
			}
			awaitGoroutines(t, baseline)
			requireDrained(t, dev, "after gather fault")

			// Fault cleared: identical query on the same device serves fully.
			want, err := rj.JoinContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := co.JoinContext(context.Background(), req)
			if err != nil {
				t.Fatalf("kind %v shards %d after fault: %v", kind, n, err)
			}
			resultsBitIdentical(t, got, want, "post-fault")
			requireDrained(t, dev, "after post-fault join")
		}
	}
}
