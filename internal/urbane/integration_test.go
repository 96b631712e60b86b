package urbane

import (
	"bytes"
	"context"
	"image/png"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/workload"
)

// TestDemoSessionEndToEnd drives the whole demonstration as one session:
// realistic NYC data through registration, cube materialization, SQL
// routing, and every view — asserting the cross-view consistencies a demo
// visitor would implicitly rely on.
func TestDemoSessionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end session is not -short")
	}
	scene := workload.NYC(30_000, 1234)
	c311 := data.Generate(data.NYC311Config(8_000, 2009, time.January, 1235))

	f := New(core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(512)))
	for _, err := range []error{
		f.AddPointSet(scene.Taxi),
		f.AddPointSet(c311),
		f.AddRegionSet(scene.Neighborhoods),
		f.AddRegionSet(scene.Grid),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildCube("taxi", "neighborhoods", 86400, []string{"fare"}); err != nil {
		t.Fatal(err)
	}

	// 1. Canned SQL goes to the cube; the ad-hoc variant goes to raster —
	// and the unfiltered counts agree between engines.
	canned, err := f.QueryContext(context.Background(), "SELECT COUNT(*) FROM taxi, neighborhoods GROUP BY id")
	if err != nil {
		t.Fatal(err)
	}
	if canned.Result.Algorithm != "pre-aggregation-cube" {
		t.Fatalf("canned routed to %s", canned.Result.Algorithm)
	}
	adhoc, err := f.QueryContext(context.Background(), "SELECT COUNT(*) FROM taxi, neighborhoods WHERE fare BETWEEN 0 AND 100000 GROUP BY id")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(adhoc.Result.Algorithm, "raster-join-accurate") {
		t.Fatalf("ad-hoc routed to %s", adhoc.Result.Algorithm)
	}
	for k := range canned.Result.Stats {
		if canned.Result.Stats[k].Count != adhoc.Result.Stats[k].Count {
			t.Fatalf("region %d: cube %d vs raster %d — engines disagree",
				k, canned.Result.Stats[k].Count, adhoc.Result.Stats[k].Count)
		}
	}

	// 2. Map view totals equal the SQL result.
	jan := workload.Jan2009()
	ch, err := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "neighborhoods",
		Agg: core.Count, Time: jan})
	if err != nil {
		t.Fatal(err)
	}
	var chTotal float64
	for _, v := range ch.Values {
		chTotal += v.Value
	}
	if int64(chTotal) != canned.Result.TotalCount() {
		t.Fatalf("map view total %v != SQL total %d", chTotal, canned.Result.TotalCount())
	}

	// 3. Exploration series for every region sum back to the map view.
	ex, err := f.ExploreContext(context.Background(), ExplorationRequest{
		Selection: Selection{Layer: "neighborhoods", Agg: core.Count},
		Datasets:  []string{"taxi"}, Start: jan.Start, End: jan.End, Bins: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	seriesTotal := 0.0
	for _, s := range ex.Series {
		for _, v := range s.Values {
			seriesTotal += v
		}
	}
	if seriesTotal != chTotal {
		t.Fatalf("exploration total %v != map view total %v", seriesTotal, chTotal)
	}

	// 4. Delta over two halves of the month reconciles with the full month.
	mid := (jan.Start + jan.End) / 2
	delta, err := f.DeltaContext(context.Background(), DeltaRequest{
		Selection: Selection{Dataset: "taxi", Layer: "neighborhoods", Agg: core.Count},
		A:         core.TimeFilter{Start: jan.Start, End: mid},
		B:         core.TimeFilter{Start: mid, End: jan.End}})
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "neighborhoods",
		Agg: core.Count, Time: &core.TimeFilter{Start: jan.Start, End: mid}})
	for k := range delta.Values {
		if got, want := delta.Values[k].Value, ch.Values[k].Value-2*h1.Values[k].Value; got != want {
			t.Fatalf("region %d delta %v != month-2*firstHalf %v", k, got, want)
		}
	}

	// 5. Flow view resolves most trips and its total never exceeds the
	// filtered point count.
	fl, err := f.FlowViewContext(context.Background(), FlowViewRequest{Selection: Selection{Dataset: "taxi", Layer: "neighborhoods"}, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Total+fl.Dropped != int64(scene.Taxi.Len()) {
		t.Fatalf("flow total %d + dropped %d != %d points",
			fl.Total, fl.Dropped, scene.Taxi.Len())
	}
	if fl.Total < int64(scene.Taxi.Len())/2 {
		t.Fatalf("flow resolved only %d of %d", fl.Total, scene.Taxi.Len())
	}

	// 6. Heatmap conserves the point count.
	hm, err := f.HeatmapContext(context.Background(), HeatmapRequest{Dataset: "taxi", W: 128})
	if err != nil {
		t.Fatal(err)
	}
	if hm.Total != float64(scene.Taxi.Len()) {
		t.Fatalf("heatmap total %v != %d points", hm.Total, scene.Taxi.Len())
	}

	// 7. Ranking runs over both data sets and excludes the target.
	target := scene.Neighborhoods.Regions[0].ID
	scores, err := f.RankSimilarContext(context.Background(), "neighborhoods", target, []MetricSpec{
		{Name: "activity", Selection: Selection{Dataset: "taxi", Agg: core.Count}},
		{Name: "complaints", Selection: Selection{Dataset: "311", Agg: core.Count}},
		{Name: "avg fare", Selection: Selection{Dataset: "taxi", Agg: core.Avg, Attr: "fare"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != scene.Neighborhoods.Len()-1 {
		t.Fatalf("scores = %d", len(scores))
	}

	// 8. The rendered choropleth decodes as a PNG of the right size.
	pngBytes, err := f.RenderChoroplethContext(context.Background(), Selection{Dataset: "taxi",
		Layer: "neighborhoods", Agg: core.Count}, 320)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(pngBytes))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 320 {
		t.Fatalf("choropleth width %d", img.Bounds().Dx())
	}

	// 9. MIN/MAX SQL works end to end and respects the fare distribution.
	maxQ, err := f.QueryContext(context.Background(), "SELECT MAX(fare) FROM taxi, neighborhoods")
	if err != nil {
		t.Fatal(err)
	}
	fares := scene.Taxi.Attr("fare")
	best := 0.0
	for _, v := range fares {
		if v > best {
			best = v
		}
	}
	gotBest := 0.0
	for k := range maxQ.Result.Stats {
		if v := maxQ.Result.Value(k, core.Max); v > gotBest {
			gotBest = v
		}
	}
	if gotBest != best {
		t.Fatalf("global max fare via regions %v != data max %v", gotBest, best)
	}
}
