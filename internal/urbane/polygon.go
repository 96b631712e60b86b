package urbane

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/geom"
)

// polygonWire is the POST /api/polygon request body: aggregate a data set
// over one user-drawn polygon (a ring of [x, y] Web-Mercator meters; the
// closing edge is implicit). Filters and a time window are accepted — they
// route the query down the exact raster path instead of the hierarchy.
type polygonWire struct {
	selectionWire
	Ring [][2]float64 `json:"ring"`
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

// handlePolygon serves POST /api/polygon: an arbitrary user-drawn polygon
// aggregated over one data set. With geoblocks enabled the framework
// answers from the hierarchy (interior cells + fringe refinement);
// otherwise — and for filtered or time-windowed requests — the accurate
// raster join runs in full. Responses are cached under the selection plus
// the canonical geometry: ring coordinates are rendered as exact hex floats
// so distinct geometry never collides.
func (s *Server) handlePolygon(w http.ResponseWriter, r *http.Request) {
	var wreq polygonWire
	sel, ok := s.decodeView(w, r, &wreq, &wreq.selectionWire)
	if !ok {
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
	var sb strings.Builder
	for _, p := range ring {
		sb.WriteString(strconv.FormatFloat(p.X, 'x', -1, 64))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(p.Y, 'x', -1, 64))
		sb.WriteByte(';')
	}
	key := s.selectionSig(s.sig("polygon"), sel).Str("ring", sb.String()).Key()
	s.serveCached(w, r, key, "application/json", func(ctx context.Context) ([]byte, error) {
		// The ad-hoc region set lives for this compute only; its stamp
		// keys nothing persistent (the span cache and geoblocks' fringe
		// memo skip one-region sets, the hierarchy is keyed by the point
		// set).
		req, err := s.f.resolve(sel, &data.RegionSet{Name: "polygon", Regions: []data.Region{
			{ID: 0, Name: "polygon", Poly: poly},
		}})
		if err != nil {
			return nil, err
		}
		res, err := s.f.ExecuteContext(ctx, req)
		if err != nil {
			return nil, err
		}
		return marshalBody(polygonResponse{
			Algorithm: res.Algorithm,
			Agg:       sel.Agg.String(),
			Count:     res.Stats[0].Count,
			Value:     res.Value(0, sel.Agg),
		})
	})
}
