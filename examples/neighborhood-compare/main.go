// Neighborhood comparison: the introduction's architect scenario. An
// architect evaluating a development site compares its neighborhood with
// every other one along several data-driven metrics — taxi activity,
// average fares, 311 complaint pressure, and photo/tourism density — and
// gets a ranked list of the most similar neighborhoods to use as
// performance references.
//
//	go run ./examples/neighborhood-compare
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/urbane"
	"repro/internal/workload"
)

func main() {
	scene := workload.NYC(400_000, 7)
	c311 := data.Generate(data.NYC311Config(100_000, 2009, time.January, 8))
	photos := data.Generate(data.NYCPhotosConfig(50_000, 2009, time.January, 9))

	f := urbane.New(core.NewRasterJoin(core.WithResolution(1024)))
	must(f.AddPointSet(scene.Taxi))
	must(f.AddPointSet(c311))
	must(f.AddPointSet(photos))
	must(f.AddRegionSet(scene.Neighborhoods))

	// The candidate site's neighborhood: pick the one with the most taxi
	// activity as a stand-in for "the neighborhood the architect works in".
	ch, err := f.MapViewContext(context.Background(), urbane.Selection{
		Dataset: "taxi", Layer: "neighborhoods", Agg: core.Count,
	})
	must(err)
	target := ch.Values[0]
	for _, v := range ch.Values {
		if v.Value > target.Value {
			target = v
		}
	}
	fmt.Printf("target neighborhood: %s (%d taxi pickups)\n\n",
		target.Name, int64(target.Value))

	metrics := []urbane.MetricSpec{
		{Name: "taxi activity", Selection: urbane.Selection{Dataset: "taxi", Agg: core.Count}},
		{Name: "avg fare", Selection: urbane.Selection{Dataset: "taxi", Agg: core.Avg, Attr: "fare"}},
		{Name: "311 complaints", Selection: urbane.Selection{Dataset: "311", Agg: core.Count}},
		{Name: "photo density", Selection: urbane.Selection{Dataset: "photos", Agg: core.Count}},
	}
	start := time.Now()
	scores, err := f.RankSimilarContext(context.Background(), "neighborhoods", target.ID, metrics)
	must(err)
	elapsed := time.Since(start)

	fmt.Printf("ranked %d neighborhoods on %d metrics in %v\n\n",
		len(scores), len(metrics), elapsed.Round(time.Millisecond))
	fmt.Println("most similar neighborhoods (z-scored feature distance):")
	for i := 0; i < 8 && i < len(scores); i++ {
		s := scores[i]
		fmt.Printf("  %2d. %-22s distance %.3f  features %v\n",
			i+1, s.Name, s.Distance, roundAll(s.Values))
	}
	fmt.Println("\nleast similar:")
	for i := len(scores) - 3; i < len(scores); i++ {
		s := scores[i]
		fmt.Printf("      %-22s distance %.3f\n", s.Name, s.Distance)
	}
}

func roundAll(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(int(v*100)) / 100
	}
	return out
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
