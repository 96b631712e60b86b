package urbane

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// DeltaRequest drives the change view: the same aggregation evaluated over
// two time windows, reported per region as B - A — "how did pickups shift
// from week 1 to week 4?", the temporal comparison the demo's time slider
// invites.
type DeltaRequest struct {
	Selection
	// A is the baseline window, B the comparison window; they replace the
	// selection's Time.
	A, B core.TimeFilter
}

// DeltaView is the change-map payload: per-region deltas plus the symmetric
// range for a diverging color scale.
type DeltaView struct {
	Layer  string        `json:"layer"`
	Values []RegionValue `json:"values"`
	// MaxAbs is the largest |delta|; color scales span [-MaxAbs, +MaxAbs].
	MaxAbs    float64 `json:"maxAbs"`
	Algorithm string  `json:"algorithm"`
	Timing
}

// DeltaContext evaluates both windows (through the planner, so cubes serve
// aligned windows) and returns the per-region differences; each window's
// execution is individually cancelable.
func (f *Framework) DeltaContext(ctx context.Context, req DeltaRequest) (*DeltaView, error) {
	if req.A == req.B {
		return nil, fmt.Errorf("urbane: delta windows are identical")
	}
	sel := req.Selection
	sel.Time = &req.A
	reqA, err := f.resolve(sel, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resA, err := f.ExecuteContext(ctx, reqA)
	if err != nil {
		return nil, err
	}
	reqB := reqA
	reqB.Time = &req.B
	resB, err := f.ExecuteContext(ctx, reqB)
	if err != nil {
		return nil, err
	}
	rs := reqA.Regions

	view := &DeltaView{
		Layer:     req.Layer,
		Values:    make([]RegionValue, rs.Len()),
		Algorithm: resA.Algorithm,
	}
	view.Elapsed = time.Since(start)
	for k, reg := range rs.Regions {
		d := resB.Value(k, req.Agg) - resA.Value(k, req.Agg)
		view.Values[k] = RegionValue{ID: reg.ID, Name: reg.Name, Value: d}
		if abs := math.Abs(d); abs > view.MaxAbs {
			view.MaxAbs = abs
		}
	}
	return view, nil
}
