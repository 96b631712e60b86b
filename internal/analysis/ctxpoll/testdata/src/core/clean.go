// Clean fixture for ctxpoll: loops that poll directly, poll via their
// condition, delegate the context, or do no draw work at all.
package core

import "context"

// cleanDirectPoll polls per iteration — the point-batch shape.
func cleanDirectPoll(ctx context.Context, c *canvas, batches []int) error {
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.DrawPoints(b)
	}
	return nil
}

// cleanCondPoll polls in the loop condition — the worker-claim shape.
func cleanCondPoll(ctx context.Context, c *canvas, n int) {
	i := 0
	for ctx.Err() == nil {
		if i >= n {
			return
		}
		drawRegion(c, i)
		i++
	}
}

// cleanDelegated hands ctx to the callee that does the drawing — the
// batched / parallelCtx shape.
func cleanDelegated(ctx context.Context, c *canvas, tiles []int) error {
	for _, t := range tiles {
		if err := drawTileCtx(ctx, c, t); err != nil {
			return err
		}
	}
	return nil
}

func drawTileCtx(ctx context.Context, c *canvas, t int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	fillTile(c, t, t)
	return nil
}

// cleanSelectPoll polls through a select on ctx.Done().
func cleanSelectPoll(ctx context.Context, c *canvas, work chan int) {
	for {
		select {
		case k := <-work:
			drawRegion(c, k)
		case <-ctx.Done():
			return
		}
	}
}

// cleanNoWork loops without draw work: bookkeeping loops need no poll.
func cleanNoWork(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	_ = ctx
	return s
}

// cleanNoContext has no context in scope at all: out of ctxpoll's scope
// (with no context there is nothing to poll).
func cleanNoContext(c *canvas, regions []int) {
	for _, k := range regions {
		drawRegion(c, k)
	}
}

// cleanStridedRefine is the shipped refinement shape: the poll is
// amortized to every 64th cell, but it is inside the loop, so the
// contract is met at any stride.
func cleanStridedRefine(ctx context.Context, c *canvas, fringe []int) error {
	for i, cell := range fringe {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rasterizeCell(c, cell)
	}
	return nil
}

// cleanPatchStridedPoll is the shipped pyramid-patch shape: the appended
// tail is swept with the poll amortized to a stride, exactly like
// PatchAppend's buildPollStride check — inside the loop, so compliant.
func cleanPatchStridedPoll(ctx context.Context, c *canvas, oldLen, n int) error {
	for i := oldLen; i < n; i++ {
		if (i-oldLen)%512 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rasterizeCell(c, i)
	}
	return nil
}

func renderSlabCtx(ctx context.Context, c *canvas, slab int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	renderSlab(c, slab)
	return nil
}

// cleanSlabFoldDelegated is the shipped slab-fold shape: each slab of the
// window hands the request context to the per-slab recompute, so
// cancellation propagates without an explicit poll in the fold loop.
func cleanSlabFoldDelegated(ctx context.Context, c *canvas, slabs []int) error {
	for _, s := range slabs {
		if err := renderSlabCtx(ctx, c, s); err != nil {
			return err
		}
	}
	return nil
}
