package urbane

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/fsum"
)

// MetricSpec is one axis of the neighborhood comparison: a spatial
// aggregation over one data set whose per-region values become a feature.
// The paper's architect scenario compares a candidate neighborhood against
// the rest of the city along several such metrics.
type MetricSpec struct {
	Name string
	// Selection is the metric's aggregation; every metric is evaluated over
	// the ranking's layer, so its Layer is not read.
	Selection
}

// RegionScore is one region's similarity result: its distance to the target
// in normalized feature space (smaller = more similar) and its metric
// values in that space (each metric z-normalized over the layer).
type RegionScore struct {
	ID       int       `json:"id"`
	Name     string    `json:"name"`
	Distance float64   `json:"distance"`
	Values   []float64 `json:"values"`
}

// RankSimilarContext computes each metric over the layer, z-normalizes the
// per-region feature matrix, and ranks all regions by euclidean distance to
// the target region's feature vector (most similar first, target excluded).
// Each metric group's render is individually cancelable.
func (f *Framework) RankSimilarContext(ctx context.Context, layer string, targetID int, metrics []MetricSpec) ([]RegionScore, error) {
	if len(metrics) == 0 {
		return nil, fmt.Errorf("urbane: ranking needs at least one metric")
	}
	rs, err := f.layer(layer)
	if err != nil {
		return nil, err
	}
	targetIdx := -1
	for i, r := range rs.Regions {
		if r.ID == targetID {
			targetIdx = i
			break
		}
	}
	if targetIdx == -1 {
		return nil, fmt.Errorf("urbane: region id %d not in layer %q", targetID, layer)
	}

	n := rs.Len()
	features := make([][]float64, n)
	for i := range features {
		features[i] = make([]float64, len(metrics))
	}

	// Each metric is one join on the layer: cube-servable metrics take the
	// cube, the rest the raster join.
	for m, spec := range metrics {
		creq, err := f.resolve(spec.Selection, rs)
		if err != nil {
			return nil, fmt.Errorf("urbane: metric %q: %w", spec.Name, err)
		}
		var res *core.Result
		if f.cubeServable(creq) {
			res, err = f.ExecuteContext(ctx, creq)
		} else {
			res, err = f.rasterJoiner().JoinContext(ctx, creq)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("urbane: metric %q: %w", spec.Name, err)
		}
		for k := 0; k < n; k++ {
			features[k][m] = res.Value(k, spec.Agg)
		}
	}

	// Z-normalize each metric column so no single scale dominates. The
	// column sums are compensated: metric magnitudes span orders of
	// magnitude (counts vs averaged fares), which is where naive
	// mean/variance sums lose digits.
	for m := range metrics {
		var meanAcc fsum.Kahan
		for k := 0; k < n; k++ {
			meanAcc.Add(features[k][m])
		}
		mean := meanAcc.Sum() / float64(n)
		var varAcc fsum.Kahan
		for k := 0; k < n; k++ {
			d := features[k][m] - mean
			varAcc.Add(d * d)
		}
		std := math.Sqrt(varAcc.Sum() / float64(n))
		if std == 0 {
			std = 1
		}
		for k := 0; k < n; k++ {
			features[k][m] = (features[k][m] - mean) / std
		}
	}

	target := features[targetIdx]
	scores := make([]RegionScore, 0, n-1)
	for k := 0; k < n; k++ {
		if k == targetIdx {
			continue
		}
		var d2Acc fsum.Kahan
		for m := range metrics {
			d := features[k][m] - target[m]
			d2Acc.Add(d * d)
		}
		d2 := d2Acc.Sum()
		scores = append(scores, RegionScore{
			ID:       rs.Regions[k].ID,
			Name:     rs.Regions[k].Name,
			Distance: math.Sqrt(d2),
			Values:   append([]float64(nil), features[k]...),
		})
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].Distance < scores[j].Distance })
	return scores, nil
}
