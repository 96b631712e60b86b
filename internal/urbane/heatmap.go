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
	Counts  []float64     `json:"counts"`
	Max     float64       `json:"max"`
	Total   float64       `json:"total"`
	Elapsed time.Duration `json:"elapsedNs"`
}

// HeatmapContext renders the density view through the GPU substrate's point
// pass. The density render is a single point pass; cancellation is checked
// before it starts and the canvas is always released.
func (f *Framework) HeatmapContext(ctx context.Context, req HeatmapRequest) (*Heatmap, error) {
	ps, ok := f.PointSet(req.Dataset)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown point set %q", req.Dataset)
	}
	var weight []float64
	if req.Weight != "" {
		weight = ps.Attr(req.Weight)
		if weight == nil {
			return nil, fmt.Errorf("urbane: weight attribute %q not in %q", req.Weight, req.Dataset)
		}
	}
	for _, flt := range req.Filters {
		if ps.Attr(flt.Attr) == nil {
			return nil, fmt.Errorf("urbane: filter attribute %q not in %q", flt.Attr, req.Dataset)
		}
	}
	if req.Time != nil && ps.T == nil {
		return nil, fmt.Errorf("urbane: time filter on %q without timestamps", req.Dataset)
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
	dev := f.rasterJoiner().Device()
	if w > dev.MaxTextureSize() || h > dev.MaxTextureSize() {
		return nil, fmt.Errorf("urbane: heatmap %dx%d exceeds device texture size %d",
			w, h, dev.MaxTextureSize())
	}

	start := time.Now()
	lo, hi, pred, err := core.PointPredicate(core.Request{
		Points: ps, Regions: nil, Filters: req.Filters, Time: req.Time,
	})
	if err != nil {
		return nil, err
	}
	canvas, err := dev.NewCanvas(bounds, w, h)
	if err != nil {
		return nil, err
	}
	defer canvas.Release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hm := &Heatmap{W: w, H: h, Bounds: canvas.T.World, Counts: make([]float64, w*h)}
	canvas.DrawPoints(hi-lo,
		func(j int) (float64, float64) { i := lo + j; return ps.X[i], ps.Y[i] },
		func(px, py, j int) {
			i := lo + j
			if pred != nil && !pred(i) {
				return
			}
			v := 1.0
			if weight != nil {
				v = weight[i]
			}
			hm.Counts[py*w+px] += v
		})
	hm.Total = fsum.Pairwise(hm.Counts)
	for _, v := range hm.Counts {
		if v > hm.Max {
			hm.Max = v
		}
	}
	hm.Elapsed = time.Since(start)
	return hm, nil
}
