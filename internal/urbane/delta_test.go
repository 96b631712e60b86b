package urbane

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

func TestDeltaView(t *testing.T) {
	f, _, nbhd := buildTestFramework(t)
	req := DeltaRequest{
		Selection: Selection{Dataset: "taxi", Layer: "nbhd", Agg: core.Count},
		A:         core.TimeFilter{Start: 0, End: 4 * 3600},
		B:         core.TimeFilter{Start: 4 * 3600, End: 8 * 3600},
	}
	view, err := f.DeltaContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Values) != nbhd.Len() {
		t.Fatalf("values = %d", len(view.Values))
	}
	// Deltas must equal the two map views' difference.
	a, _ := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd",
		Agg: core.Count, Time: &core.TimeFilter{Start: 0, End: 4 * 3600}})
	b, _ := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd",
		Agg: core.Count, Time: &core.TimeFilter{Start: 4 * 3600, End: 8 * 3600}})
	for k := range view.Values {
		want := b.Values[k].Value - a.Values[k].Value
		if view.Values[k].Value != want {
			t.Fatalf("region %d delta %v, want %v", k, view.Values[k].Value, want)
		}
		if math.Abs(view.Values[k].Value) > view.MaxAbs {
			t.Fatalf("MaxAbs %v < |delta| %v", view.MaxAbs, view.Values[k].Value)
		}
	}
	// Errors.
	if _, err := f.DeltaContext(context.Background(), DeltaRequest{Selection: Selection{Dataset: "taxi", Layer: "nbhd"}, A: req.A, B: req.A}); err == nil {
		t.Error("identical windows should fail")
	}
	if _, err := f.DeltaContext(context.Background(), DeltaRequest{Selection: Selection{Dataset: "nope", Layer: "nbhd"}, A: req.A, B: req.B}); err == nil {
		t.Error("unknown data set should fail")
	}
	if _, err := f.DeltaContext(context.Background(), DeltaRequest{Selection: Selection{Dataset: "taxi", Layer: "nope"}, A: req.A, B: req.B}); err == nil {
		t.Error("unknown layer should fail")
	}
	bad := req
	bad.Agg = core.Sum
	bad.Attr = "nope"
	if _, err := f.DeltaContext(context.Background(), bad); err == nil {
		t.Error("bad attribute should fail")
	}
}

func TestDeltaEndpoint(t *testing.T) {
	s, _ := testServer(t)
	body := map[string]any{
		"dataset": "taxi", "layer": "nbhd", "agg": "count",
		"a": map[string]int64{"start": 0, "end": 4 * 3600},
		"b": map[string]int64{"start": 4 * 3600, "end": 8 * 3600},
	}
	rec := doJSON(t, s, "POST", "/api/delta", body)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var view DeltaView
	if err := jsonUnmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Values) != 12 {
		t.Errorf("values = %d", len(view.Values))
	}
	body["agg"] = "median"
	if rec := doJSON(t, s, "POST", "/api/delta", body); rec.Code != 400 {
		t.Errorf("bad agg status = %d", rec.Code)
	}
}

func jsonUnmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }
