// OD flows: Urbane's taxi-flow view. Where do trips go? The raster flow
// join renders the neighborhoods once into a polygon-ID texture, then
// resolves both ends of every trip in a single pass over the points —
// producing the origin-destination matrix at interactive speed, with the
// usual ad-hoc filters.
//
//	go run ./examples/od-flows
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/urbane"
	"repro/internal/workload"
)

func main() {
	scene := workload.NYC(500_000, 2024)
	f := urbane.New(core.NewRasterJoin(core.WithResolution(1024)))
	must(f.AddPointSet(scene.Taxi))
	must(f.AddRegionSet(scene.Neighborhoods))

	fmt.Printf("OD flow view: %d taxi trips over %d neighborhoods\n\n",
		scene.Taxi.Len(), scene.Neighborhoods.Len())

	// The full month's strongest flows.
	trips := urbane.Selection{Dataset: "taxi", Layer: "neighborhoods"}
	view, err := f.FlowViewContext(context.Background(), urbane.FlowViewRequest{
		Selection: trips, Top: 8,
	})
	must(err)
	fmt.Printf("strongest flows (all trips, %v, %d resolved / %d dropped):\n",
		view.Elapsed.Round(time.Millisecond), view.Total, view.Dropped)
	printEdges(view)

	// Ad-hoc refinement: premium trips only.
	premiumTrips := trips
	premiumTrips.Filters = []core.Filter{{Attr: "fare", Min: 40, Max: 1e9}}
	premium, err := f.FlowViewContext(context.Background(), urbane.FlowViewRequest{
		Selection: premiumTrips, Top: 8,
	})
	must(err)
	fmt.Printf("\nstrongest premium flows (fare >= $40, %v):\n",
		premium.Elapsed.Round(time.Millisecond))
	printEdges(premium)

	// Self-flows vs cross-flows: how local is taxi traffic?
	var self, cross int64
	all, err := f.FlowViewContext(context.Background(), urbane.FlowViewRequest{
		Selection: trips, Top: 1 << 30,
	})
	must(err)
	for _, e := range all.Edges {
		if e.FromID == e.ToID {
			self += e.Count
		} else {
			cross += e.Count
		}
	}
	fmt.Printf("\ntraffic locality: %.1f%% of trips stay in their pickup neighborhood\n",
		100*float64(self)/float64(self+cross))
}

func printEdges(v *urbane.FlowView) {
	for i, e := range v.Edges {
		arrow := "→"
		if e.FromID == e.ToID {
			arrow = "↺"
		}
		fmt.Printf("  %2d. %-22s %s %-22s %7d trips\n", i+1, e.From, arrow, e.To, e.Count)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
