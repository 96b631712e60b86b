package geoblocks_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geoblocks"
	"repro/internal/geom"
	"repro/internal/gpu"
)

// countdownCtx reports Canceled after its budget of Err() polls is spent —
// a deterministic way to abort inside a specific processing loop rather
// than at a wall-clock instant.
type countdownCtx struct {
	context.Context
	budget atomic.Int64
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.budget.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func bigRing() geom.Polygon {
	// A many-vertex concave shape covering most of the grid: lots of
	// boundary cells, so classification and refinement both have plenty
	// of poll points to trip on.
	return geom.NewPolygon(geom.StarRing(geom.Point{X: 500, Y: 500}, 480, 140, 24))
}

// TestBuildCancelDoesNotPoisonStore aborts index construction mid-build
// and checks the store retries cleanly: the failed build is never cached,
// and the next Get with a live context succeeds.
func TestBuildCancelDoesNotPoisonStore(t *testing.T) {
	ps := buildScene(t, 200_000, 61) // large enough to cross build poll strides
	s := geoblocks.NewStore(8)

	_, err := s.Get(newCountdown(1), ps)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted build returned %v, want context.Canceled", err)
	}
	st := s.Stats()
	if st.Entries != 0 {
		t.Fatalf("failed build left %d cached entries", st.Entries)
	}

	ix, err := s.Get(context.Background(), ps)
	if err != nil {
		t.Fatalf("retry after aborted build: %v", err)
	}
	if ix.Len() != ps.Len() {
		t.Fatalf("retried index holds %d points, want %d", ix.Len(), ps.Len())
	}
}

// TestQueryCancelMidRefinement aborts during plan/refine and checks the
// hybrid path surfaces the cancellation without leaking render resources —
// the geoblocks path never touches the device, and nothing it allocates
// outlives the call.
func TestQueryCancelMidRefinement(t *testing.T) {
	ps := buildScene(t, 20_000, 62)
	dev := gpu.New()
	eng := geoblocks.PinHybrid(geoblocks.NewEngine(core.NewRasterJoin(core.WithDevice(dev),
		core.WithMode(core.Accurate), core.WithResolution(96)), 8))
	req := core.Request{Points: ps, Regions: regions(bigRing()), Agg: core.Sum, Attr: "v"}

	// Warm the index with an unconstrained context first, so the
	// countdown budget is spent inside classify/refine, not the build.
	if _, err := eng.JoinContext(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	aborted := 0
	for budget := int64(1); budget <= 64; budget *= 2 {
		_, err := eng.JoinContext(newCountdown(budget), req)
		switch {
		case errors.Is(err, context.Canceled):
			aborted++
		case err != nil:
			t.Fatalf("budget %d: unexpected error %v", budget, err)
		}
		if n := dev.LiveCanvases(); n != 0 {
			t.Fatalf("budget %d: %d canvases live after abort", budget, n)
		}
		if n := dev.LiveTextures(); n != 0 {
			t.Fatalf("budget %d: %d textures live after abort", budget, n)
		}
	}
	if aborted == 0 {
		t.Fatal("no countdown budget tripped a cancellation; poll points are not being exercised")
	}
}

// TestFallbackCancelDrainsDevice forces the raster fallback (an ad-hoc
// filter the hierarchy cannot serve) and cancels it mid-join: the
// fallback must release every canvas and texture it acquired.
func TestFallbackCancelDrainsDevice(t *testing.T) {
	ps := buildScene(t, 50_000, 63)
	dev := gpu.New()
	eng := geoblocks.NewEngine(core.NewRasterJoin(core.WithDevice(dev),
		core.WithMode(core.Accurate), core.WithResolution(256),
		core.WithPointBatch(1024)), 6)
	req := core.Request{Points: ps, Regions: regions(bigRing()), Agg: core.Count,
		Filters: []core.Filter{{Attr: "v", Min: -50, Max: 50}}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the join must abort at its first poll
	if _, err := eng.JoinContext(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("fallback under canceled ctx returned %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if dev.LiveCanvases() == 0 && dev.LiveTextures() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("device not drained after fallback abort: %d canvases, %d textures",
		dev.LiveCanvases(), dev.LiveTextures())
}

// TestStoreGetHonorsWaiterContext: a waiter blocked on another
// goroutine's in-flight build must give up when its own context dies,
// while the build itself completes and serves later callers.
func TestStoreGetHonorsWaiterContext(t *testing.T) {
	ps := buildScene(t, 300_000, 64)
	s := geoblocks.NewStore(8)

	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := s.Get(context.Background(), ps)
		done <- err
	}()
	<-started

	wctx, wcancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		wcancel()
	}()
	if _, err := s.Get(wctx, ps); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter returned %v, want nil (build won the race) or context.Canceled", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("background build failed: %v", err)
	}
	if _, err := s.Get(context.Background(), ps); err != nil {
		t.Fatalf("get after build: %v", err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("store built %d times, want 1 (stats %+v)", st.Misses, st)
	}
}
