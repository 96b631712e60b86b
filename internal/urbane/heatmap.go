package urbane

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fsum"
	"repro/internal/geom"
)

// HeatmapRequest drives Urbane's raw-density view: points rendered
// directly onto a canvas (no polygons), with the same ad-hoc filters as
// every other view. Weight selects COUNT (empty) or the attribute whose
// per-pixel sum is rendered.
type HeatmapRequest struct {
	Dataset string
	// W, H are the canvas dimensions; H <= 0 derives it from the bounds'
	// aspect ratio.
	W, H int
	// Bounds crops the view; empty uses the data set's bounds.
	Bounds  geom.BBox
	Weight  string
	Filters []core.Filter
	Time    *core.TimeFilter
}

// Heatmap is the rendered density raster.
type Heatmap struct {
	W      int       `json:"w"`
	H      int       `json:"h"`
	Bounds geom.BBox `json:"bounds"`
	// Counts is the row-major W*H pixel grid (counts or attribute sums).
	Counts []float64 `json:"counts"`
	Max    float64   `json:"max"`
	Total  float64   `json:"total"`
	Timing
}

// HeatmapContext renders the density view: the raster joiner's point pass
// with no polygons behind it (core.DensityContext), over the data set's
// attached segment source when it has one. Cancellation is observed between
// point batches and the canvas is always released.
func (f *Framework) HeatmapContext(ctx context.Context, req HeatmapRequest) (*Heatmap, error) {
	ps, ok := f.PointSet(req.Dataset)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown point set %q", req.Dataset)
	}
	creq := core.Request{Points: ps, Filters: req.Filters, Time: req.Time}
	if src, ok := f.PointSource(req.Dataset); ok {
		creq.Source = src
	}
	if req.Weight != "" {
		creq.Agg, creq.Attr = core.Sum, req.Weight
	}
	// A zero-value or degenerate crop means "use the data's extent": a
	// legitimate crop always has area.
	bounds := req.Bounds
	if bounds.IsEmpty() || bounds.Area() == 0 {
		bounds = ps.Bounds()
	}
	if bounds.IsEmpty() || bounds.Area() == 0 {
		return nil, fmt.Errorf("urbane: data set %q has no extent", req.Dataset)
	}
	w := req.W
	if w <= 0 {
		w = 512
	}
	h := req.H
	if h <= 0 {
		h = int(float64(w) * bounds.Height() / bounds.Width())
		if h < 1 {
			h = 1
		}
	}
	rj := f.rasterJoiner()
	if limit := rj.Device().MaxTextureSize(); w > limit || h > limit {
		return nil, fmt.Errorf("urbane: heatmap %dx%d exceeds device texture size %d", w, h, limit)
	}

	start := time.Now()
	counts, world, err := rj.DensityContext(ctx, creq, bounds, w, h)
	if err != nil {
		return nil, err
	}
	hm := &Heatmap{W: w, H: h, Bounds: world, Counts: counts}
	hm.Total = fsum.Pairwise(hm.Counts)
	for _, v := range hm.Counts {
		if v > hm.Max {
			hm.Max = v
		}
	}
	hm.Elapsed = time.Since(start)
	return hm, nil
}
