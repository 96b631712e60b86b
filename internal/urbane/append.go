package urbane

import (
	"fmt"
	"net/http"

	"repro/internal/data"
)

// appendWire is the POST /api/append body: columnar arrays of new points
// for one data set. Attribute columns travel by name; the set's schema
// decides which are required.
type appendWire struct {
	Dataset string               `json:"dataset"`
	X       []float64            `json:"x"`
	Y       []float64            `json:"y"`
	T       []int64              `json:"t"`
	Attrs   map[string][]float64 `json:"attrs"`
}

// appendResponse reports how the catalog moved: the new epoch keys all
// future cached responses for the data set.
type appendResponse struct {
	Dataset          string `json:"dataset"`
	Appended         int    `json:"appended"`
	Len              int    `json:"len"`
	Epoch            uint64 `json:"epoch"`
	GeoBlocksPatched bool   `json:"geoBlocksPatched"`
}

// handleAppend ingests new points into a data set: POST /api/append.
// The append is copy-on-write (queries in flight keep their snapshot) and
// the geoblocks pyramid is patched rather than rebuilt. No cache is
// touched: this data set's cached responses go stale through its epoch,
// which their keys carry, so other data sets' entries stay warm, and the
// stale ones age out of the byte budget. Appends skip admission control:
// they are O(tail), far cheaper than the join computes admission exists
// to bound.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var wreq appendWire
	if !s.decodePost(w, r, &wreq) {
		return
	}
	base, ok := s.f.PointSet(wreq.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown point set %q", wreq.Dataset))
		return
	}
	tail, err := tailFor(base, wreq)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.f.Append(r.Context(), wreq.Dataset, tail)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, appendResponse{
		Dataset:          wreq.Dataset,
		Appended:         info.Appended,
		Len:              info.Len,
		Epoch:            info.Epoch,
		GeoBlocksPatched: info.GeoBlocksPatched,
	})
}

// tailFor assembles the wire columns into a PointSet matching base's
// schema: same time-column presence, same attributes in base's storage
// order. Extra wire attributes are rejected so typos fail loudly.
func tailFor(base *data.PointSet, wreq appendWire) (*data.PointSet, error) {
	tail := &data.PointSet{Name: base.Name, X: wreq.X, Y: wreq.Y}
	if len(tail.X) == 0 {
		return nil, fmt.Errorf("append needs at least one point")
	}
	if base.T != nil {
		if len(wreq.T) == 0 {
			return nil, fmt.Errorf("data set %q has a time column; append body needs \"t\"", base.Name)
		}
		tail.T = wreq.T
	} else if len(wreq.T) != 0 {
		return nil, fmt.Errorf("data set %q has no time column; drop \"t\"", base.Name)
	}
	for _, c := range base.Attrs {
		vals, ok := wreq.Attrs[c.Name]
		if !ok {
			return nil, fmt.Errorf("append body is missing attribute %q", c.Name)
		}
		tail.Attrs = append(tail.Attrs, data.Column{Name: c.Name, Values: vals})
	}
	if len(wreq.Attrs) != len(base.Attrs) {
		for name := range wreq.Attrs {
			if base.Attr(name) == nil {
				return nil, fmt.Errorf("data set %q has no attribute %q", base.Name, name)
			}
		}
	}
	if err := tail.Validate(); err != nil {
		return nil, err
	}
	return tail, nil
}
