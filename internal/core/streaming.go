package core

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/gpu"
)

// StreamJoin evaluates one spatial aggregation over a point stream: the
// polygon side and the canvas are fixed up front, then point batches are
// drawn as they arrive and a final polygon pass produces the result. This
// is the paper's bigger-than-GPU-memory pipeline generalized to
// bigger-than-RAM inputs — each batch can be read from disk, aggregated,
// and discarded.
//
// The accurate mode is supported: boundary-pixel observations (coordinates
// plus the aggregated value) are retained across batches, which is the
// only per-point state exactness requires.
type StreamJoin struct {
	r       *RasterJoin
	regions *data.RegionSet
	agg     Agg
	attr    string
	filters []Filter
	time    *TimeFilter

	// The stream owns a single-pass canvas and the tile the batches
	// accumulate into on it, until release.
	canvas *gpu.Canvas
	t      *tile

	batches   int64
	points    int64
	finalized bool
	released  bool
}

// NewStream prepares a streaming aggregation over the region layer. The
// canvas must fit a single device pass (stream state is per-pixel); lower
// the resolution or raise the device texture limit otherwise. Filters and
// the time window apply to every batch.
func (r *RasterJoin) NewStream(regions *data.RegionSet, agg Agg, attr string,
	filters []Filter, tf *TimeFilter) (*StreamJoin, error) {

	if r.epsilon > 0 {
		return nil, fmt.Errorf("core: streaming join requires resolution mode, not ε")
	}
	if agg.NeedsAttr() && attr == "" {
		return nil, fmt.Errorf("core: %v needs an attribute", agg)
	}
	window := regions.Bounds()
	if window.IsEmpty() {
		return nil, fmt.Errorf("core: region layer %q has no extent", regions.Name)
	}
	full := r.fullTransform(window)
	c, err := r.dev.NewCanvas(full.World, full.W, full.H)
	if err != nil {
		return nil, fmt.Errorf("core: streaming join: %w (reduce the resolution)", err)
	}
	t, err := r.newTile(context.Background(), c, regions, agg)
	if err != nil {
		c.Release()
		return nil, err
	}
	return &StreamJoin{r: r, regions: regions, agg: agg, attr: attr,
		filters: filters, time: tf, canvas: c, t: t}, nil
}

// AddContext streams one batch of points into the aggregation. The batch
// must carry the aggregate attribute and every filtered attribute; it is not
// retained (beyond boundary observations in accurate mode). Cancellation
// mid-batch leaves the textures with a partial batch blended in, so the
// stream is aborted — its resources released and further use rejected —
// rather than left in a state that would silently undercount.
func (s *StreamJoin) AddContext(ctx context.Context, ps *data.PointSet) error {
	return s.addContext(ctx, Request{Points: ps, Regions: s.regions, Agg: s.agg,
		Attr: s.attr, Filters: s.filters, Time: s.time})
}

// AddSourceContext streams one columnar block source (e.g. a segment store)
// into the aggregation: blocks are zone-pruned, decoded one at a time under
// the store's cache budget, and never retained — the fully out-of-core
// formulation of AddContext, with the same abort-on-cancellation contract.
func (s *StreamJoin) AddSourceContext(ctx context.Context, src data.PointSource) error {
	return s.addContext(ctx, Request{Source: src, Regions: s.regions, Agg: s.agg,
		Attr: s.attr, Filters: s.filters, Time: s.time})
}

func (s *StreamJoin) addContext(ctx context.Context, req Request) error {
	if s.finalized {
		return fmt.Errorf("core: stream already finalized")
	}
	if err := req.Validate(); err != nil {
		return err
	}
	sc, err := s.r.newScan(req)
	if err != nil {
		return err
	}
	sc.setWorld(s.canvas.T.World)
	attrIdx := -1
	if s.agg.NeedsAttr() {
		attrIdx = data.AttrIndex(req.Data(), s.attr)
	}
	if err := s.t.drawScan(ctx, sc, sc.Lo, sc.Hi, attrIdx); err != nil {
		s.Abort()
		return err
	}
	s.batches++
	s.points += int64(sc.Hi - sc.Lo)
	return nil
}

// Abort ends the stream without a result, releasing its canvas and pooled
// textures. Idempotent; called automatically when a batch is canceled
// mid-draw.
func (s *StreamJoin) Abort() {
	s.finalized = true
	s.release()
}

// release returns the stream's device resources. Idempotent.
func (s *StreamJoin) release() {
	if s.released {
		return
	}
	s.released = true
	s.canvas.Release()
	s.t.release()
}

// Batches returns how many batches were added.
func (s *StreamJoin) Batches() int64 { return s.batches }

// FinalizeContext runs the polygon pass over the accumulated textures and
// returns the result. The stream cannot be added to afterwards, and its
// device resources are released on every exit path — including cancellation
// mid-polygon-pass, which returns ctx.Err() and no result.
func (s *StreamJoin) FinalizeContext(ctx context.Context) (*Result, error) {
	if s.finalized {
		return nil, fmt.Errorf("core: stream already finalized")
	}
	s.finalized = true
	defer s.release()
	ct := s.canvas.T
	res := &Result{
		Stats:     make([]RegionStat, s.regions.Len()),
		Algorithm: s.r.Name() + "-stream",
		CanvasW:   ct.W, CanvasH: ct.H,
		Tiles:     1,
		PixelSize: ct.PixelWidth(),
	}
	if err := s.t.resolve(ctx, res.Stats); err != nil {
		return nil, err
	}
	return res, nil
}
