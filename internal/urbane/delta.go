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
	Dataset string
	Layer   string
	Agg     core.Agg
	Attr    string
	Filters []core.Filter
	// A is the baseline window, B the comparison window.
	A, B core.TimeFilter
}

// DeltaView is the change-map payload: per-region deltas plus the symmetric
// range for a diverging color scale.
type DeltaView struct {
	Layer  string        `json:"layer"`
	Values []RegionValue `json:"values"`
	// MaxAbs is the largest |delta|; color scales span [-MaxAbs, +MaxAbs].
	MaxAbs    float64       `json:"maxAbs"`
	Algorithm string        `json:"algorithm"`
	Elapsed   time.Duration `json:"elapsedNs"`
}

// DeltaContext evaluates both windows (through the planner, so cubes serve
// aligned windows) and returns the per-region differences; each window's
// execution is individually cancelable.
func (f *Framework) DeltaContext(ctx context.Context, req DeltaRequest) (*DeltaView, error) {
	if req.A == req.B {
		return nil, fmt.Errorf("urbane: delta windows are identical")
	}
	ps, ok := f.PointSet(req.Dataset)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown point set %q", req.Dataset)
	}
	rs, ok := f.RegionSet(req.Layer)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown region set %q", req.Layer)
	}
	base := core.Request{
		Points: ps, Regions: rs,
		Agg: req.Agg, Attr: req.Attr, Filters: req.Filters,
	}
	start := time.Now()
	reqA := base
	a := req.A
	reqA.Time = &a
	if err := reqA.Validate(); err != nil {
		return nil, err
	}
	resA, err := f.ExecuteContext(ctx, reqA)
	if err != nil {
		return nil, err
	}
	reqB := base
	b := req.B
	reqB.Time = &b
	resB, err := f.ExecuteContext(ctx, reqB)
	if err != nil {
		return nil, err
	}

	view := &DeltaView{
		Layer:     req.Layer,
		Values:    make([]RegionValue, rs.Len()),
		Algorithm: resA.Algorithm,
		Elapsed:   time.Since(start),
	}
	for k, reg := range rs.Regions {
		d := resB.Value(k, req.Agg) - resA.Value(k, req.Agg)
		view.Values[k] = RegionValue{ID: reg.ID, Name: reg.Name, Value: d}
		if abs := math.Abs(d); abs > view.MaxAbs {
			view.MaxAbs = abs
		}
	}
	return view, nil
}
