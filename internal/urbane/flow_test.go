package urbane

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// addTrips registers a trip data set (with destination columns) on the
// framework.
func addTrips(t *testing.T, f *Framework, n int, seed int64) *data.PointSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{Name: "trips",
		X: make([]float64, n), Y: make([]float64, n), T: make([]int64, n)}
	dx := make([]float64, n)
	dy := make([]float64, n)
	fare := make([]float64, n)
	for i := 0; i < n; i++ {
		ps.X[i] = rng.Float64() * 1000
		ps.Y[i] = rng.Float64() * 1000
		// Destinations concentrate in one corner so the top flows are
		// predictable.
		dx[i] = 800 + rng.Float64()*200
		dy[i] = 800 + rng.Float64()*200
		ps.T[i] = int64(i)
		fare[i] = rng.Float64() * 40
	}
	ps.Attrs = []data.Column{
		{Name: "fare", Values: fare},
		{Name: data.DropoffXAttr, Values: dx},
		{Name: data.DropoffYAttr, Values: dy},
	}
	if err := f.AddPointSet(ps); err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestFlowView(t *testing.T) {
	f, _, nbhd := buildTestFramework(t)
	trips := addTrips(t, f, 5000, 55)
	view, err := f.FlowViewContext(context.Background(), FlowViewRequest{Selection: Selection{Dataset: "trips", Layer: "nbhd"}, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Edges) != 5 {
		t.Fatalf("edges = %d, want 5", len(view.Edges))
	}
	for i := 1; i < len(view.Edges); i++ {
		if view.Edges[i-1].Count < view.Edges[i].Count {
			t.Fatal("edges not sorted by count")
		}
	}
	// Destinations cluster in the NE corner: every top edge's destination
	// must be a region intersecting that corner.
	corner := geom.BBox{MinX: 800, MinY: 800, MaxX: 1000, MaxY: 1000}
	for _, e := range view.Edges {
		var reg *data.Region
		for i := range nbhd.Regions {
			if nbhd.Regions[i].ID == e.ToID {
				reg = &nbhd.Regions[i]
			}
		}
		if reg == nil {
			t.Fatalf("edge names unknown region %d", e.ToID)
		}
		if !reg.Poly.BBox().Intersects(corner) {
			t.Errorf("top flow destination %q misses the NE corner", e.To)
		}
	}
	// Totals: nearly all trips resolve on a partition.
	if view.Total < int64(trips.Len())*9/10 {
		t.Errorf("total = %d of %d", view.Total, trips.Len())
	}
	// Filters shrink the flow.
	filtered, err := f.FlowViewContext(context.Background(), FlowViewRequest{Selection: Selection{Dataset: "trips", Layer: "nbhd", Filters: []core.Filter{{Attr: "fare", Min: 0, Max: 10}}}})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Total >= view.Total || filtered.Total == 0 {
		t.Errorf("filtered total = %d vs %d", filtered.Total, view.Total)
	}
}

func TestFlowViewErrors(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	addTrips(t, f, 100, 56)
	if _, err := f.FlowViewContext(context.Background(), FlowViewRequest{Selection: Selection{Dataset: "nope", Layer: "nbhd"}}); err == nil {
		t.Error("unknown data set should fail")
	}
	if _, err := f.FlowViewContext(context.Background(), FlowViewRequest{Selection: Selection{Dataset: "trips", Layer: "nope"}}); err == nil {
		t.Error("unknown layer should fail")
	}
	// taxi in the test framework has no destination columns.
	if _, err := f.FlowViewContext(context.Background(), FlowViewRequest{Selection: Selection{Dataset: "taxi", Layer: "nbhd"}}); err == nil {
		t.Error("data set without destinations should fail")
	}
}

func TestFlowsEndpoint(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	addTrips(t, f, 1000, 57)
	s := NewServer(f)
	rec := doJSON(t, s, http.MethodPost, "/api/flows",
		map[string]any{"dataset": "trips", "layer": "nbhd", "top": 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var view FlowView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Edges) != 3 || view.Total == 0 {
		t.Errorf("view = %+v", view)
	}
	// An inverted window selects no trip: nothing flows and nothing is
	// dropped.
	rec = doJSON(t, s, http.MethodPost, "/api/flows", map[string]any{"dataset": "trips", "layer": "nbhd",
		"time": map[string]int64{"start": 600, "end": 400}})
	if rec.Code != http.StatusOK {
		t.Fatalf("inverted window status = %d: %s", rec.Code, rec.Body)
	}
	view = FlowView{}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Total != 0 || view.Dropped != 0 || len(view.Edges) != 0 {
		t.Errorf("inverted window view = %+v, want empty", view)
	}
	rec = doJSON(t, s, http.MethodPost, "/api/flows",
		map[string]any{"dataset": "taxi", "layer": "nbhd"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("destination-less data set status = %d", rec.Code)
	}
}
