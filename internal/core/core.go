// Package core implements the paper's primary contribution: Raster Join,
// which evaluates spatial aggregation queries
//
//	SELECT AGG(a_i) FROM P, R
//	WHERE P.loc INSIDE R.geometry [AND filterCondition]*
//	GROUP BY R.id
//
// by converting them into drawing operations on a canvas and running them
// through the (software-simulated) GPU rendering pipeline. Three variants
// are provided:
//
//   - RasterJoin with a fixed canvas resolution — the unbounded approximate
//     join; error depends on the pixel size.
//   - RasterJoin with an error bound ε — bounded raster join: the canvas
//     resolution is derived from ε and the render is tiled into multiple
//     passes when it exceeds the device texture limit.
//   - Accurate raster join — interior pixels are aggregated in raster
//     space while fragments in boundary pixels take an exact
//     point-in-polygon test, producing exact results.
//
// The package also defines the Request/Result vocabulary shared with the
// baseline joiners (internal/index, internal/cube).
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/data"
)

// Agg selects the aggregation function of a spatial aggregation query. The
// paper names count and average as the common cases; sum is the primitive
// average decomposes into.
type Agg int

const (
	// Count counts joined points per region.
	Count Agg = iota
	// Sum totals an attribute over joined points per region.
	Sum
	// Avg averages an attribute over joined points per region.
	Avg
	// Min takes an attribute's minimum per region. On the GPU this is the
	// MIN blend equation instead of additive blending.
	Min
	// Max takes an attribute's maximum per region (MAX blend equation).
	Max
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// NeedsAttr reports whether the aggregate reads an attribute column.
func (a Agg) NeedsAttr() bool {
	switch a {
	case Sum, Avg, Min, Max:
		return true
	}
	return false
}

// Filter is one ad-hoc filterCondition: attribute value in [Min, Max).
// These are the constraints pre-aggregation cannot serve and Raster Join
// evaluates on the fly.
type Filter struct {
	Attr     string
	Min, Max float64
}

// TimeFilter restricts points to timestamps in [Start, End).
type TimeFilter struct {
	Start, End int64
}

// Request is a spatial aggregation query: aggregate Agg(Attr) of the points
// joined into each region, under the given filters.
type Request struct {
	Points *data.PointSet
	// Source, when non-nil, is the block-iterator read path the raster
	// joiners scan instead of Points — an on-disk columnar segment store,
	// or any other data.PointSource. Points may still be set alongside it
	// (the planner keeps both so in-RAM joiners and the cube route
	// unchanged); joiners that have been refactored onto blocks prefer
	// Source.
	Source  data.PointSource
	Regions *data.RegionSet
	Agg     Agg
	// Attr names the aggregated attribute for Sum/Avg.
	Attr    string
	Filters []Filter
	// Time, when non-nil, restricts points to the window. If the point
	// data is time-sorted this is evaluated by binary search instead of a
	// predicate.
	Time *TimeFilter
}

// Data returns the request's point data as a PointSource: Source when set,
// the in-RAM point set's block view otherwise.
func (r *Request) Data() data.PointSource {
	if r.Source != nil {
		return r.Source
	}
	return r.Points.Source()
}

// Validate reports whether the request is well-formed against its data.
func (r *Request) Validate() error {
	if (r.Points == nil && r.Source == nil) || r.Regions == nil {
		return errors.New("core: request needs points and regions")
	}
	return r.validatePoints()
}

// validatePoints is the point side of Validate — everything a pass with no
// polygons (DensityContext) needs checked.
func (r *Request) validatePoints() error {
	if r.Source == nil {
		if err := r.Points.Validate(); err != nil {
			return err
		}
	}
	src := r.Data()
	if r.Agg.NeedsAttr() {
		if data.AttrIndex(src, r.Attr) < 0 {
			return fmt.Errorf("core: %v needs attribute %q, not in point set %q",
				r.Agg, r.Attr, src.Name())
		}
	}
	for _, f := range r.Filters {
		if data.AttrIndex(src, f.Attr) < 0 {
			return fmt.Errorf("core: filter attribute %q not in point set %q",
				f.Attr, src.Name())
		}
	}
	if r.Time != nil && !src.HasTime() {
		return fmt.Errorf("core: time filter on point set %q without timestamps", src.Name())
	}
	return nil
}

// RegionStat accumulates the join result for one region. Min/Max are only
// meaningful when Count > 0 (the zero value is an empty region).
type RegionStat struct {
	Count    int64
	Sum      float64
	Min, Max float64
}

// Observe folds one attribute value into the stat.
func (s *RegionStat) Observe(v float64) {
	if s.Count == 0 {
		s.Min, s.Max = v, v
	} else {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Count++
	s.Sum += v
}

// Merge folds another stat into this one (tile and shard accumulation).
func (s *RegionStat) Merge(o RegionStat) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = o
		return
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Value evaluates the aggregate from the accumulated state. Aggregates of
// an empty region are 0.
func (s RegionStat) Value(agg Agg) float64 {
	switch agg {
	case Count:
		return float64(s.Count)
	case Sum:
		return s.Sum
	case Avg:
		if s.Count == 0 {
			return 0
		}
		return s.Sum / float64(s.Count)
	case Min:
		if s.Count == 0 {
			return 0
		}
		return s.Min
	case Max:
		if s.Count == 0 {
			return 0
		}
		return s.Max
	default:
		return 0
	}
}

// Result is the output of a spatial aggregation: one stat per region, in
// region-set order, plus execution metadata.
type Result struct {
	Stats []RegionStat
	// Algorithm identifies the joiner that produced the result.
	Algorithm string
	// CanvasW, CanvasH are the full canvas dimensions used by raster
	// algorithms (0 for geometric joiners).
	CanvasW, CanvasH int
	// Tiles is the number of render passes the canvas was split into.
	Tiles int
	// PixelSize is the world-space pixel side length (0 for geometric
	// joiners).
	PixelSize float64
}

// Value returns the aggregate value for the i-th region.
func (r *Result) Value(i int, agg Agg) float64 { return r.Stats[i].Value(agg) }

// TotalCount sums the per-region counts (useful for conservation checks on
// partitioning region sets).
func (r *Result) TotalCount() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.Count
	}
	return n
}

// Joiner evaluates spatial aggregation requests. Implementations: Raster
// Join (this package), index join and brute force (internal/index), and the
// pre-aggregation cube (internal/cube, canned queries only).
type Joiner interface {
	Name() string
	Join(req Request) (*Result, error)
}

// ContextJoiner is implemented by joiners that honor request-scoped
// cancellation and deadlines. RasterJoin checks the context between point
// batches and between region claims, so a canceled request aborts within a
// couple of batch intervals instead of running to completion.
type ContextJoiner interface {
	Joiner
	JoinContext(ctx context.Context, req Request) (*Result, error)
}

// JoinContext runs the request on j under ctx. Joiners that implement
// ContextJoiner are canceled mid-flight; for the rest (cube, index — both
// fast enough that mid-flight cancellation buys nothing) the context is
// checked once up front so an already-dead request never starts.
func JoinContext(ctx context.Context, j Joiner, req Request) (*Result, error) {
	if cj, ok := j.(ContextJoiner); ok {
		return cj.JoinContext(ctx, req)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return j.Join(req)
}
