package urbane

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

// MapViewRequest drives the map view: one data set aggregated over one
// polygonal layer, under optional ad-hoc constraints — e.g. "taxi pickups
// in January 2009 per neighborhood" (the paper's Figure 1).
type MapViewRequest struct {
	Dataset string
	Layer   string
	Agg     core.Agg
	Attr    string
	Filters []core.Filter
	Time    *core.TimeFilter
}

// RegionValue is one choropleth entry.
type RegionValue struct {
	ID    int     `json:"id"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Choropleth is the map view's payload: one value per region plus the value
// range for the color scale.
type Choropleth struct {
	Layer     string        `json:"layer"`
	Values    []RegionValue `json:"values"`
	Min       float64       `json:"min"`
	Max       float64       `json:"max"`
	Algorithm string        `json:"algorithm"`
	Elapsed   time.Duration `json:"elapsedNs"`
}

// MapViewContext evaluates the choropleth for the request.
func (f *Framework) MapViewContext(ctx context.Context, req MapViewRequest) (*Choropleth, error) {
	ps, ok := f.PointSet(req.Dataset)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown point set %q", req.Dataset)
	}
	rs, ok := f.RegionSet(req.Layer)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown region set %q", req.Layer)
	}
	creq := core.Request{
		Points: ps, Regions: rs,
		Agg: req.Agg, Attr: req.Attr,
		Filters: req.Filters, Time: req.Time,
	}
	if err := creq.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := f.ExecuteContext(ctx, creq)
	if err != nil {
		return nil, err
	}
	ch := &Choropleth{
		Layer:     req.Layer,
		Values:    make([]RegionValue, len(res.Stats)),
		Min:       math.Inf(1),
		Max:       math.Inf(-1),
		Algorithm: res.Algorithm,
		Elapsed:   time.Since(start),
	}
	for k, r := range rs.Regions {
		v := res.Value(k, req.Agg)
		ch.Values[k] = RegionValue{ID: r.ID, Name: r.Name, Value: v}
		if v < ch.Min {
			ch.Min = v
		}
		if v > ch.Max {
			ch.Max = v
		}
	}
	if len(ch.Values) == 0 {
		ch.Min, ch.Max = 0, 0
	}
	return ch, nil
}

// ExplorationRequest drives the data exploration view: several data sets
// compared over the same layer and time axis, as per-region time series.
type ExplorationRequest struct {
	// Datasets to compare (all aggregated with Agg/Attr; data sets missing
	// the attribute are rejected).
	Datasets []string
	Layer    string
	Agg      core.Agg
	Attr     string
	// RegionIDs restricts the series to these regions (empty = all).
	RegionIDs []int
	// Start/End bound the time axis, split into Bins equal bins.
	Start, End int64
	Bins       int
	// Filters apply to every data set that has the filtered attributes;
	// filters naming absent attributes are rejected.
	Filters []core.Filter
}

// Series is one line in the exploration view.
type Series struct {
	Dataset  string    `json:"dataset"`
	RegionID int       `json:"regionId"`
	Region   string    `json:"region"`
	Values   []float64 `json:"values"`
}

// Exploration is the data exploration view payload.
type Exploration struct {
	BinStarts []int64       `json:"binStarts"`
	Series    []Series      `json:"series"`
	Elapsed   time.Duration `json:"elapsedNs"`
}

// ExploreContext evaluates the exploration view: for each data set and each
// time bin, one spatial aggregation query over the layer; the per-region
// results are transposed into time series. Cancellation is checked between
// per-bin queries, and the series fast path inherits the raster joiner's
// batch-granular cancellation.
func (f *Framework) ExploreContext(ctx context.Context, req ExplorationRequest) (*Exploration, error) {
	if req.Bins < 1 {
		return nil, fmt.Errorf("urbane: exploration needs at least 1 bin")
	}
	if req.End <= req.Start {
		return nil, fmt.Errorf("urbane: empty time range [%d,%d)", req.Start, req.End)
	}
	rs, ok := f.RegionSet(req.Layer)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown region set %q", req.Layer)
	}
	regionIdx, err := resolveRegions(rs, req.RegionIDs)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	width := (req.End - req.Start) / int64(req.Bins)
	if width < 1 {
		width = 1
	}
	out := &Exploration{BinStarts: make([]int64, req.Bins)}
	for b := 0; b < req.Bins; b++ {
		out.BinStarts[b] = req.Start + int64(b)*width
	}

	for _, name := range req.Datasets {
		ps, ok := f.PointSet(name)
		if !ok {
			return nil, fmt.Errorf("urbane: unknown point set %q", name)
		}
		// One series per selected region for this data set.
		base := len(out.Series)
		for _, k := range regionIdx {
			out.Series = append(out.Series, Series{
				Dataset:  name,
				RegionID: rs.Regions[k].ID,
				Region:   rs.Regions[k].Name,
				Values:   make([]float64, req.Bins),
			})
		}
		creq := core.Request{
			Points: ps, Regions: rs,
			Agg: req.Agg, Attr: req.Attr, Filters: req.Filters,
		}
		if err := creq.Validate(); err != nil {
			return nil, fmt.Errorf("urbane: data set %q: %w", name, err)
		}

		// Fast path: one raster series join rasterizes the polygons once
		// for all bins. Cubes (microsecond lookups) and unusual canvases
		// fall back to per-bin execution. The cube check uses the first
		// bin's shape, since bin alignment decides servability.
		probe := creq
		probe.Time = &core.TimeFilter{Start: out.BinStarts[0], End: out.BinStarts[0] + width}
		if !f.cubeServable(probe) && ps.T != nil {
			series, err := f.rasterJoiner().SeriesJoinContext(ctx, creq, req.Start, req.End, req.Bins)
			if err != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if err == nil {
				for b := 0; b < req.Bins; b++ {
					for si, k := range regionIdx {
						out.Series[base+si].Values[b] = series.Value(b, k, req.Agg)
					}
				}
				continue
			}
			// Fall through to the per-bin path on any series failure.
		}
		for b := 0; b < req.Bins; b++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			end := req.Start + int64(b+1)*width
			if b == req.Bins-1 {
				end = req.End
			}
			binReq := creq
			binReq.Time = &core.TimeFilter{Start: out.BinStarts[b], End: end}
			res, err := f.ExecuteContext(ctx, binReq)
			if err != nil {
				return nil, err
			}
			for si, k := range regionIdx {
				out.Series[base+si].Values[b] = res.Value(k, req.Agg)
			}
		}
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// resolveRegions maps requested region IDs to positions in the region set
// (all positions when ids is empty).
func resolveRegions(rs *data.RegionSet, ids []int) ([]int, error) {
	if len(ids) == 0 {
		idx := make([]int, rs.Len())
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	byID := make(map[int]int, rs.Len())
	for i, r := range rs.Regions {
		byID[r.ID] = i
	}
	idx := make([]int, 0, len(ids))
	for _, id := range ids {
		i, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("urbane: region id %d not in layer %q", id, rs.Name)
		}
		idx = append(idx, i)
	}
	return idx, nil
}
