package gpu

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
)

// randomPoints returns n points over the 8x8 test world, a third of them
// outside the window so culling paths are exercised.
func randomPoints(n int, seed int64) (xs, ys []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()*12 - 2
		ys[i] = rng.Float64()*12 - 2
	}
	return xs, ys
}

// TestDrawPointsParallelByteIdentical: the parallel pass must produce
// bit-identical textures to DrawPoints for pixel-keyed shaders — including
// an order-sensitive float sum target — at every worker count.
func TestDrawPointsParallelByteIdentical(t *testing.T) {
	const n = 50_000
	xs, ys := randomPoints(n, 7)
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(8))
	for i := range vals {
		vals[i] = rng.Float64()*1e6 - 5e5 // wide range to expose reassociation
	}
	pos := func(i int) (float64, float64) { return xs[i], ys[i] }

	d := New()
	c, err := d.NewCanvas(testWorld(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantCount := NewTexture(8, 8)
	wantSum := NewTexture(8, 8)
	c.DrawPoints(n, pos, func(px, py, i int) {
		wantCount.Add(px, py, 1)
		wantSum.Add(px, py, vals[i])
	})

	for _, workers := range []int{2, 3, 7, 12} {
		gotCount := NewTexture(8, 8)
		gotSum := NewTexture(8, 8)
		err := c.DrawPointsParallel(context.Background(), workers, n, pos,
			func(px, py, i int) {
				gotCount.Add(px, py, 1)
				gotSum.Add(px, py, vals[i])
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range wantSum.Data {
			if gotCount.Data[i] != wantCount.Data[i] {
				t.Fatalf("workers=%d: count pixel %d = %v, want %v",
					workers, i, gotCount.Data[i], wantCount.Data[i])
			}
			if gotSum.Data[i] != wantSum.Data[i] {
				t.Fatalf("workers=%d: sum pixel %d = %v, want %v (not bit-identical)",
					workers, i, gotSum.Data[i], wantSum.Data[i])
			}
		}
	}
}

// TestDrawPointsParallelFragmentOrderPerPixel: within one pixel, shader
// invocations must arrive in ascending vertex order — the property that
// makes float accumulation deterministic.
func TestDrawPointsParallelFragmentOrderPerPixel(t *testing.T) {
	const n = 30_000
	xs, ys := randomPoints(n, 11)
	d := New()
	c, err := d.NewCanvas(testWorld(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	last := make([]int, 64)
	for i := range last {
		last[i] = -1
	}
	err = c.DrawPointsParallel(context.Background(), 5, n,
		func(i int) (float64, float64) { return xs[i], ys[i] },
		func(px, py, i int) {
			p := py*8 + px
			if i <= last[p] {
				t.Errorf("pixel %d: vertex %d arrived after %d", p, i, last[p])
			}
			last[p] = i
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDrawPointsParallelSmallDrawFallsBack: draws under the parallel
// threshold take the sequential path and still shade correctly.
func TestDrawPointsParallelSmallDrawFallsBack(t *testing.T) {
	d := New()
	c, err := d.NewCanvas(testWorld(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.5, 7.5, 3.5}
	ys := []float64{0.5, 7.5, 3.5}
	tex := NewTexture(8, 8)
	if err := c.DrawPointsParallel(context.Background(), 8, len(xs),
		func(i int) (float64, float64) { return xs[i], ys[i] },
		func(px, py, i int) { tex.Add(px, py, 1) }); err != nil {
		t.Fatal(err)
	}
	if tex.Sum() != 3 {
		t.Fatalf("shaded %v fragments, want 3", tex.Sum())
	}
}

// TestDrawPointsParallelCancel covers all three abort points: before the
// draw, mid-transform (phase 1), and mid-merge (phase 2).
func TestDrawPointsParallelCancel(t *testing.T) {
	const n = 100_000
	xs, ys := randomPoints(n, 13)
	d := New()
	c, err := d.NewCanvas(testWorld(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	pos := func(i int) (float64, float64) { return xs[i], ys[i] }
	noop := func(px, py, i int) {}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.DrawPointsParallel(pre, 4, n, pos, noop); err != context.Canceled {
		t.Fatalf("pre-canceled pass returned %v, want context.Canceled", err)
	}

	// Phase 1 abort: pos cancels after a while, so workers observe ctx
	// between transform chunks.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	var seen atomic.Int64
	err = c.DrawPointsParallel(ctx1, 4, n,
		func(i int) (float64, float64) {
			if seen.Add(1) == 1000 {
				cancel1()
			}
			return xs[i], ys[i]
		}, noop)
	if err != context.Canceled {
		t.Fatalf("mid-transform cancel returned %v, want context.Canceled", err)
	}

	// Phase 2 abort: the shader cancels, so merge goroutines observe ctx
	// between replay chunks.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var shaded atomic.Int64
	err = c.DrawPointsParallel(ctx2, 4, n, pos,
		func(px, py, i int) {
			if shaded.Add(1) == 1000 {
				cancel2()
			}
		})
	if err != context.Canceled {
		t.Fatalf("mid-merge cancel returned %v, want context.Canceled", err)
	}
}
