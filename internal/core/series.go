package core

import (
	"context"
	"fmt"
)

// SeriesJoinContext evaluates the request across consecutive time bins
// spanning [start, end) and returns one Result per bin: bin b is exactly
// the Result a JoinContext over the bin's window returns, metadata
// included, for every aggregate, mode and canvas. It runs on the join's
// tile loop. Each canvas tile prepares its polygon side — the compiled
// layer from the span cache — once, and each bin is one point pass over the
// (filtered) points of its window plus the tile's resolve, whose work
// scales with the pixels the bin's points touched rather than with the
// canvas. resolve merges each tile's stats into the bin's, as it does a
// join's, so a canvas tiled into several passes — the ε mode's or one
// larger than the device — gives every bin the bits JoinContext gives it.
// The static polygon work is paid once per tile instead of bins times.
//
// Bins split the range evenly, the last one taking the remainder; more bins
// than seconds in the range is an error, as the later bins would lie past
// end. The request's own Time filter is ignored; the bin windows replace
// it. The `core.join` fault site fires once per series. Cancellation is
// checked between canvas tiles, time bins and point batches, and the canvas
// and pooled textures are released on every exit path.
func (r *RasterJoin) SeriesJoinContext(ctx context.Context, req Request, start, end int64, bins int) ([]*Result, error) {
	if bins < 1 || int64(bins) > end-start {
		return nil, fmt.Errorf("core: series needs 1 <= bins <= end-start, got %d bins over [%d,%d)", bins, start, end)
	}
	// The whole range stands in for the request's window: Validate then
	// requires timestamps, and each bin re-aims the scan at its own window.
	req.Time = &TimeFilter{Start: start, End: end}
	return r.tileLoop(ctx, req, bins, true, seriesTile(ctx, start, end, bins))
}

// seriesTile is SeriesJoinContext's tile body: per bin, pass 1 over the
// bin's window and resolve into the bin's stats.
func seriesTile(ctx context.Context, start, end int64, bins int) tileBody {
	width := (end - start) / int64(bins)
	return func(t *tile, sc *Scan, attrIdx int, out []*Result) error {
		for b, res := range out {
			if err := ctx.Err(); err != nil {
				return err
			}
			binStart := start + int64(b)*width
			binEnd := binStart + width
			if b == bins-1 {
				binEnd = end
			}
			if err := sc.setTime(binStart, binEnd); err != nil {
				return err
			}
			if err := t.drawScan(ctx, sc, sc.Lo, sc.Hi, attrIdx); err != nil {
				return err
			}
			if err := t.resolve(ctx, res.Stats); err != nil {
				return err
			}
		}
		return nil
	}
}
