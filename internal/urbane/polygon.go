package urbane

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/qcache"
)

// maxPolygonVertices bounds user-drawn rings; beyond this the request is a
// 400, not a denial-of-service on the classifier.
const maxPolygonVertices = 10_000

// polygonWire is the POST /api/polygon request body: aggregate a data set
// over one user-drawn polygon (a ring of [x, y] Web-Mercator meters; the
// closing edge is implicit). Filters and a time window are accepted — they
// route the query down the exact raster path instead of the hierarchy.
type polygonWire struct {
	Dataset string       `json:"dataset"`
	Ring    [][2]float64 `json:"ring"`
	Agg     string       `json:"agg"`
	Attr    string       `json:"attr"`
	Filters []wireFilter `json:"filters"`
	Time    *wireTime    `json:"time"`
}

// polygonResponse is the /api/polygon payload: the aggregate over the one
// ad-hoc region.
type polygonResponse struct {
	Algorithm string  `json:"algorithm"`
	Agg       string  `json:"agg"`
	Count     int64   `json:"count"`
	Value     float64 `json:"value"`
}

// parseRing validates and converts the wire ring: at least three vertices,
// all coordinates finite, nonzero area. -0 coordinates normalize to 0 so
// equal geometry shares one cache entry.
func parseRing(ws [][2]float64) (geom.Ring, error) {
	if len(ws) < 3 {
		return nil, fmt.Errorf("ring needs at least 3 vertices, got %d", len(ws))
	}
	if len(ws) > maxPolygonVertices {
		return nil, fmt.Errorf("ring has %d vertices, limit is %d", len(ws), maxPolygonVertices)
	}
	ring := make(geom.Ring, len(ws))
	for i, v := range ws {
		x, y := v[0], v[1]
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return nil, fmt.Errorf("ring vertex %d is not finite", i)
		}
		if x == 0 {
			x = 0 // normalizes -0
		}
		if y == 0 {
			y = 0
		}
		ring[i] = geom.Point{X: x, Y: y}
	}
	return ring, nil
}

// polygonKey canonicalizes the request into a cache key. Ring coordinates
// are rendered as exact hex floats so distinct geometry never collides; the
// data set travels as an Epoch pair like every other key (see cache.go).
func polygonKey(req polygonWire, ring geom.Ring, agg core.Agg, filters []core.Filter, t *core.TimeFilter, epoch uint64) string {
	var sb strings.Builder
	for _, p := range ring {
		sb.WriteString(strconv.FormatFloat(p.X, 'x', -1, 64))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(p.Y, 'x', -1, 64))
		sb.WriteByte(';')
	}
	return qcache.NewSig("polygon").
		Epoch(req.Dataset, epoch).
		Str("agg", agg.String()).Str("attr", req.Attr).
		Str("ring", sb.String()).
		Filters("f", filters).TimeRange("t", t).Key()
}

// handlePolygon serves POST /api/polygon: an arbitrary user-drawn polygon
// aggregated over one data set. With geoblocks enabled the framework
// answers from the hierarchy (interior cells + fringe refinement);
// otherwise — and for filtered or time-windowed requests — the accurate
// raster join runs in full. Responses are cached under the canonical
// geometry key like every other query endpoint.
func (s *Server) handlePolygon(w http.ResponseWriter, r *http.Request) {
	var wreq polygonWire
	if !decodePost(w, r, &wreq) {
		return
	}
	agg, err := parseAgg(wreq.Agg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ring, err := parseRing(wreq.Ring)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	poly := geom.NewPolygon(ring)
	if err := poly.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, ok := s.f.PointSet(wreq.Dataset); !ok {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown data set %q", wreq.Dataset))
		return
	}
	filters := qcache.CanonFilters(toFilters(wreq.Filters))
	var tf *core.TimeFilter
	if wreq.Time != nil {
		tf = s.snapTime(&core.TimeFilter{Start: wreq.Time.Start, End: wreq.Time.End})
	}
	key := polygonKey(wreq, ring, agg, filters, tf, s.f.Epoch(wreq.Dataset))
	s.serveCached(w, r, key, "application/json", func(ctx context.Context) ([]byte, error) {
		ps, ok := s.f.PointSet(wreq.Dataset)
		if !ok {
			return nil, &statusError{status: http.StatusBadRequest,
				err: fmt.Errorf("unknown data set %q", wreq.Dataset)}
		}
		// The ad-hoc region set lives for this compute only; its stamp
		// keys nothing persistent (the span cache never sees it warm
		// twice, the hierarchy is keyed by the point set).
		rs := &data.RegionSet{Name: "polygon", Regions: []data.Region{
			{ID: 0, Name: "polygon", Poly: poly},
		}}
		req := core.Request{
			Points: ps, Regions: rs,
			Agg: agg, Attr: wreq.Attr, Filters: filters, Time: tf,
		}
		if err := req.Validate(); err != nil {
			return nil, &statusError{status: http.StatusBadRequest, err: err}
		}
		res, err := s.f.ExecuteContext(ctx, req)
		if err != nil {
			return nil, err
		}
		return marshalBody(polygonResponse{
			Algorithm: res.Algorithm,
			Agg:       agg.String(),
			Count:     res.Stats[0].Count,
			Value:     res.Value(0, agg),
		})
	})
}
