package fault

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestDeterministicSchedule is the chaos suite's determinism precondition:
// two registries with the same seed and the same rules produce the
// identical fire/skip sequence at every site, across runs and regardless of
// how the sites interleave.
func TestDeterministicSchedule(t *testing.T) {
	sites := []string{"core.pointpass", "qcache.compute", "server.decode", "core.join"}
	build := func(seed int64) *Registry {
		r := New(seed)
		for i, s := range sites {
			r.Set(s, Rule{Prob: 0.1 + 0.2*float64(i), Kind: Error})
		}
		return r
	}
	observe := func(r *Registry, n int) map[string][]bool {
		out := make(map[string][]bool)
		// Interleave the sites differently than a site-by-site sweep would,
		// to show per-site streams are independent of global call order.
		for i := 0; i < n; i++ {
			for _, s := range sites {
				err := r.Inject(context.Background(), s)
				out[s] = append(out[s], err != nil)
			}
		}
		return out
	}

	a, b := build(42), build(42)
	seqA := observe(a, 200)
	// Drive b site-by-site instead of round-robin: same per-site sequence
	// must emerge.
	seqB := make(map[string][]bool)
	for _, s := range sites {
		for i := 0; i < 200; i++ {
			err := b.Inject(context.Background(), s)
			seqB[s] = append(seqB[s], err != nil)
		}
	}
	for _, s := range sites {
		if len(seqA[s]) != 200 || len(seqB[s]) != 200 {
			t.Fatalf("site %s: sequence lengths %d/%d", s, len(seqA[s]), len(seqB[s]))
		}
		fired := 0
		for i := range seqA[s] {
			if seqA[s][i] != seqB[s][i] {
				t.Fatalf("site %s: decision %d differs between same-seed registries", s, i)
			}
			if seqA[s][i] {
				fired++
			}
		}
		if fired == 0 {
			t.Errorf("site %s: no faults fired in 200 calls at prob >= 0.1", s)
		}
		// The schedule preview must match what Inject actually did.
		pre := build(42).Schedule(s, 200)
		for i := range pre {
			if pre[i] != seqA[s][i] {
				t.Fatalf("site %s: Schedule()[%d] = %v, observed %v", s, i, pre[i], seqA[s][i])
			}
		}
	}

	// A different seed should produce a different schedule somewhere.
	c := build(43)
	seqC := observe(c, 200)
	same := true
	for _, s := range sites {
		for i := range seqA[s] {
			if seqA[s][i] != seqC[s][i] {
				same = false
			}
		}
	}
	if same {
		t.Error("seed 42 and 43 produced identical schedules at every site")
	}
}

// TestDeterminismQuick: for arbitrary seeds and probabilities, same-seed
// registries agree on every decision.
func TestDeterminismQuick(t *testing.T) {
	prop := func(seed int64, probMille uint16) bool {
		prob := float64(probMille%1001) / 1000
		a, b := New(seed), New(seed)
		a.Set("x", Rule{Prob: prob, Kind: Error})
		b.Set("x", Rule{Prob: prob, Kind: Error})
		for i := 0; i < 64; i++ {
			if (a.Inject(context.Background(), "x") != nil) !=
				(b.Inject(context.Background(), "x") != nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50,
		Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledInjectsNothing: a nil registry, a context without a registry,
// an unknown site, and a zero-probability rule all inject nothing at any
// site.
func TestDisabledInjectsNothing(t *testing.T) {
	ctx := context.Background()
	var nilReg *Registry
	for i := 0; i < 100; i++ {
		if err := nilReg.Inject(ctx, "core.pointpass"); err != nil {
			t.Fatalf("nil registry injected: %v", err)
		}
		if err := Inject(ctx, "core.pointpass"); err != nil {
			t.Fatalf("registry-less context injected: %v", err)
		}
	}
	r := New(1)
	r.Set("armed", Rule{Prob: 1, Kind: Error})
	r.Set("zero", Rule{Prob: 0, Kind: Error})
	for i := 0; i < 100; i++ {
		if err := r.Inject(ctx, "unknown.site"); err != nil {
			t.Fatalf("unknown site injected: %v", err)
		}
		if err := r.Inject(ctx, "zero"); err != nil {
			t.Fatalf("prob-0 site injected: %v", err)
		}
	}
	if err := r.Inject(ctx, "armed"); err == nil {
		t.Fatal("prob-1 site did not inject")
	}
	r.Clear()
	if err := r.Inject(ctx, "armed"); err != nil {
		t.Fatalf("cleared registry injected: %v", err)
	}
	// Counts survive only for armed sites; after Clear the map is empty.
	if n := len(r.Counts()); n != 0 {
		t.Errorf("counts after Clear: %d sites", n)
	}
}

// TestKinds: each kind produces its contracted effect.
func TestKinds(t *testing.T) {
	ctx := context.Background()
	r := New(5)

	r.Set("err", Rule{Prob: 1, Kind: Error})
	if err := r.Inject(ctx, "err"); !errors.Is(err, ErrInjected) {
		t.Errorf("Error kind: got %v, want ErrInjected", err)
	}
	custom := errors.New("boom")
	r.Set("err2", Rule{Prob: 1, Kind: Error, Err: custom})
	if err := r.Inject(ctx, "err2"); !errors.Is(err, custom) {
		t.Errorf("Error kind with custom err: got %v", err)
	}

	r.Set("cancel", Rule{Prob: 1, Kind: Cancel})
	if err := r.Inject(ctx, "cancel"); !errors.Is(err, context.Canceled) {
		t.Errorf("Cancel kind: got %v, want context.Canceled", err)
	}

	r.Set("lat", Rule{Prob: 1, Kind: Latency, Delay: 5 * time.Millisecond})
	start := time.Now()
	if err := r.Inject(ctx, "lat"); err != nil {
		t.Errorf("Latency kind returned error: %v", err)
	}
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Errorf("Latency fault slept %v, want >= ~5ms", d)
	}

	// A canceled context cuts the sleep short and surfaces ctx.Err().
	r.Set("lat2", Rule{Prob: 1, Kind: Latency, Delay: time.Hour})
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := r.Inject(cctx, "lat2"); !errors.Is(err, context.Canceled) {
		t.Errorf("Latency under canceled ctx: got %v", err)
	}

	// Counts: every armed site above saw its calls and fires.
	counts := r.Counts()
	for _, s := range []string{"err", "cancel", "lat"} {
		if c := counts[s]; c[0] != 1 || c[1] != 1 {
			t.Errorf("site %s counts = %v, want [1 1]", s, c)
		}
	}
}

// TestConcurrentInject: concurrent hook calls on one site race-cleanly and
// account every call.
func TestConcurrentInject(t *testing.T) {
	r := New(3)
	r.Set("s", Rule{Prob: 0.5, Kind: Error})
	done := make(chan struct{})
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				_ = r.Inject(context.Background(), "s")
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if c := r.Counts()["s"]; c[0] != workers*per {
		t.Errorf("calls = %d, want %d", c[0], workers*per)
	}
}
