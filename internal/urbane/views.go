package urbane

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

// Selection is the spatial aggregation query every view is built from: one
// data set aggregated over one polygonal layer under optional ad-hoc
// constraints — e.g. "taxi pickups in January 2009 per neighborhood" (the
// paper's Figure 1). The map view evaluates it as is; the other views embed
// it and say which fields they replace.
type Selection struct {
	Dataset string
	Layer   string
	Agg     core.Agg
	Attr    string
	Filters []core.Filter
	Time    *core.TimeFilter
}

// resolve turns a selection into a validated core.Request: the one place a
// view's names meet the catalog. rs, when non-nil, stands in for the named
// layer (a layer the caller already looked up, or an ad-hoc polygon).
func (f *Framework) resolve(sel Selection, rs *data.RegionSet) (core.Request, error) {
	ps, ok := f.PointSet(sel.Dataset)
	if !ok {
		return core.Request{}, fmt.Errorf("urbane: unknown point set %q", sel.Dataset)
	}
	if rs == nil {
		var err error
		if rs, err = f.layer(sel.Layer); err != nil {
			return core.Request{}, err
		}
	}
	req := core.Request{
		Points: ps, Regions: rs,
		Agg: sel.Agg, Attr: sel.Attr,
		Filters: sel.Filters, Time: sel.Time,
	}
	return req, req.Validate()
}

// layer looks a region set up by name.
func (f *Framework) layer(name string) (*data.RegionSet, error) {
	rs, ok := f.RegionSet(name)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown region set %q", name)
	}
	return rs, nil
}

// Timing is the wall time a view took to evaluate, embedded last in every
// view payload. Over HTTP it is always 0: timing travels in the
// X-Urbane-Elapsed-Ms header so cached bodies are deterministic.
type Timing struct {
	Elapsed time.Duration `json:"elapsedNs"`
}

func (t *Timing) timing() *Timing { return t }

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
	Timing
}

// MapViewContext evaluates the choropleth for the selection.
func (f *Framework) MapViewContext(ctx context.Context, sel Selection) (*Choropleth, error) {
	creq, err := f.resolve(sel, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := f.ExecuteContext(ctx, creq)
	if err != nil {
		return nil, err
	}
	ch := newChoropleth(sel, creq.Regions, res.Stats, res.Algorithm)
	ch.Elapsed = time.Since(start)
	return ch, nil
}

// newChoropleth builds the map view payload from a join's per-region stats
// (a fresh result or a selection entry of the query cache).
func newChoropleth(sel Selection, rs *data.RegionSet, stats []core.RegionStat, algorithm string) *Choropleth {
	ch := &Choropleth{
		Layer:     sel.Layer,
		Values:    make([]RegionValue, len(stats)),
		Min:       math.Inf(1),
		Max:       math.Inf(-1),
		Algorithm: algorithm,
	}
	for k, r := range rs.Regions {
		v := stats[k].Value(sel.Agg)
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
	return ch
}

// selectionResult resolves, routes and runs the selection — the join behind
// the map view and the choropleth PNG — returning the routing reason with
// the result.
func (f *Framework) selectionResult(ctx context.Context, sel Selection) (*core.Result, string, error) {
	creq, err := f.resolve(sel, nil)
	if err != nil {
		return nil, "", err
	}
	p, res, err := f.run(ctx, creq)
	if err != nil {
		return nil, "", err
	}
	return res, p.Reason, nil
}

// ExplorationRequest drives the data exploration view: several data sets
// compared over the same layer and time axis, as per-region time series.
// The selection's Dataset and Time are replaced by Datasets and the binned
// axis; its filters apply to every data set (a set missing a filtered or
// aggregated attribute is rejected).
type ExplorationRequest struct {
	Selection
	Datasets []string
	// RegionIDs restricts the series to these regions (empty = all).
	RegionIDs []int
	// Start/End bound the time axis, split into Bins equal bins.
	Start, End int64
	Bins       int
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
	BinStarts []int64  `json:"binStarts"`
	Series    []Series `json:"series"`
	Timing
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
	rs, err := f.layer(req.Layer)
	if err != nil {
		return nil, err
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
		sel := req.Selection
		sel.Dataset, sel.Time = name, nil
		creq, err := f.resolve(sel, rs)
		if err != nil {
			return nil, fmt.Errorf("urbane: data set %q: %w", name, err)
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

		// Fast path: one raster series join rasterizes the polygons once
		// for all bins. Cubes (microsecond lookups) and unusual canvases
		// fall back to per-bin execution. The cube check uses the first
		// bin's shape, since bin alignment decides servability.
		probe := creq
		probe.Time = &core.TimeFilter{Start: out.BinStarts[0], End: out.BinStarts[0] + width}
		if !f.cubeServable(probe) && creq.Points.T != nil {
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
