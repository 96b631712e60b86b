package gpu

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
)

// The parallel point pass runs in two phases so that its results are
// bit-identical to DrawPoints for every aggregation kind, including float
// summation, whose value depends on evaluation order:
//
//  1. Transform phase — the vertex range is split into contiguous shards,
//     one per worker. Each worker transforms its points and stages the
//     surviving fragments as (pixel, vertex) records in its own per-stripe
//     shard buffers (the canvas rows are divided into one stripe per
//     worker), so no two goroutines share a buffer.
//  2. Merge phase — a tile-striped reduction: each worker owns one row
//     stripe and replays the shard buffers targeting its stripe in shard
//     order, invoking the fragment shader.
//
// Because shards cover ascending contiguous vertex ranges and each stripe
// is replayed in shard order, every pixel sees its shader invocations in
// ascending vertex order — exactly the sequence the sequential pass
// produces. A dense per-worker texture merge could not make that guarantee
// for SUM targets (merging partial sums reassociates float addition), which
// is why the shards hold fragment records instead of pixels.
//
// Safety contract: the shader's writes must be keyed by the fragment's
// pixel (count/sum/min/max textures, per-boundary-pixel bins). Writes keyed
// by anything that crosses pixel rows — per-region accumulators, global
// counters — would be shared between stripe owners; such passes must shard
// their accumulators per worker instead (see the flow join).

// pointFrag is one staged point fragment: the row-major pixel it landed in
// and the vertex index within the draw call.
type pointFrag struct {
	pix int32
	i   int32
}

// minParallelPoints is the draw size below which the fan-out costs more
// than it saves and DrawPointsParallel degrades to the sequential pass.
const minParallelPoints = 4096

// fragChunk is the cancellation granularity of both phases: workers poll
// the context every fragChunk vertices or fragments.
const fragChunk = 1 << 15

// DrawPointsParallel rasterizes n point vertices like DrawPoints, fanning
// the work across up to workers goroutines. Results are bit-identical to
// DrawPoints for shaders whose writes are keyed by pixel (see the package
// contract above): for every pixel, shader invocations occur in ascending
// vertex order regardless of worker count. workers <= 1, tiny draws, and
// oversized grids fall back to the sequential pass.
//
// The context is polled between transform chunks and between merge shards;
// on cancellation the pass returns ctx.Err() immediately and the target
// textures are left partially blended — callers abandon and release them,
// as the core joiners do on every abort path.
func (c *Canvas) DrawPointsParallel(ctx context.Context, workers, n int,
	pos func(i int) (x, y float64), shader PointShader) error {

	if n <= 0 {
		return ctx.Err()
	}
	if maxShards := (n + minParallelPoints - 1) / minParallelPoints; workers > maxShards {
		workers = maxShards
	}
	w, h := c.T.W, c.T.H
	if workers <= 1 || n > math.MaxInt32 || w*h > math.MaxInt32 {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.DrawPoints(n, pos, shader)
		return nil
	}

	m := c.m

	// Phase 1: transform. buckets[src*workers+t] holds shard src's
	// fragments landing in row stripe t; each is written by exactly one
	// goroutine here and read by exactly one goroutine in phase 2, with the
	// WaitGroup barrier ordering the hand-off.
	buckets := make([][]pointFrag, workers*workers)
	shard := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for src := 0; src < workers; src++ {
		lo, hi := src*shard, min((src+1)*shard, n)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(src, lo, hi int) {
			defer wg.Done()
			mine := buckets[src*workers : (src+1)*workers]
			hint := (hi-lo)/workers + 16
			for t := range mine {
				mine[t] = make([]pointFrag, 0, hint)
			}
			for s := lo; s < hi; s += fragChunk {
				if ctx.Err() != nil {
					return
				}
				for i, e := s, min(s+fragChunk, hi); i < e; i++ {
					x, y := pos(i)
					px, py, ok := m.Map(x, y)
					if !ok {
						continue
					}
					t := py * workers / h
					mine[t] = append(mine[t], pointFrag{pix: int32(py*w + px), i: int32(i)})
				}
			}
		}(src, lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		c.CountPoints(n, 0)
		return err
	}

	// Phase 2: tile-striped merge. Stripe owner t replays shards 0..workers
	// in order, so each pixel's fragments arrive in ascending vertex order.
	var shaded atomic.Int64
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var count int64
			for src := 0; src < workers; src++ {
				frags := buckets[src*workers+t]
				for s := 0; s < len(frags); s += fragChunk {
					if ctx.Err() != nil {
						shaded.Add(count)
						return
					}
					//lint:ignore ctxpoll the enclosing chunk loop polls every fragChunk fragments; per-fragment polling would put an atomic load in the shader inner loop
					for _, f := range frags[s:min(s+fragChunk, len(frags))] {
						shader(int(f.pix)%w, int(f.pix)/w, int(f.i))
					}
					count += int64(min(fragChunk, len(frags)-s))
				}
			}
			shaded.Add(count)
		}(t)
	}
	wg.Wait()
	c.CountPoints(n, int(shaded.Load()))
	return ctx.Err()
}
