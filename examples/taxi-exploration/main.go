// Taxi exploration: the paper's Figure-1 scenario end to end. A demo
// visitor looks at taxi pickups over NYC neighborhoods for January 2009,
// then drags the time slider week by week and tightens an ad-hoc fare
// filter — every interaction re-evaluated on the fly by Raster Join.
//
//	go run ./examples/taxi-exploration
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/fsum"
	"repro/internal/urbane"
	"repro/internal/workload"
)

func main() {
	scene := workload.NYC(500_000, 2009)
	f := urbane.New(core.NewRasterJoin(core.WithResolution(1024)))
	must(f.AddPointSet(scene.Taxi))
	must(f.AddRegionSet(scene.Neighborhoods))
	must(f.AddRegionSet(scene.Grid))

	fmt.Println("Urbane map view: taxi pickups, January 2009, by neighborhood")
	fmt.Println("-------------------------------------------------------------")

	// Initial view: the whole month.
	view(f, "full month", urbane.Selection{
		Dataset: "taxi", Layer: "neighborhoods",
		Agg: core.Count, Time: workload.Jan2009(),
	})

	// Interaction 1: the user drags the time slider across the weeks.
	for w := 0; w < 4; w++ {
		view(f, fmt.Sprintf("week %d", w+1), urbane.Selection{
			Dataset: "taxi", Layer: "neighborhoods",
			Agg: core.Count, Time: workload.JanWeek(w),
		})
	}

	// Interaction 2: ad-hoc filter — only premium trips (fare >= $25).
	// Pre-aggregation could never serve this; Raster Join just draws again.
	view(f, "week 2, fare >= $25", urbane.Selection{
		Dataset: "taxi", Layer: "neighborhoods",
		Agg:     core.Count,
		Time:    workload.JanWeek(1),
		Filters: []core.Filter{{Attr: "fare", Min: 25, Max: 1e9}},
	})

	// Interaction 3: switch the resolution to Urbane's grid view and look
	// at average fares instead of counts.
	view(f, "grid view, AVG(fare)", urbane.Selection{
		Dataset: "taxi", Layer: "grid64",
		Agg: core.Avg, Attr: "fare", Time: workload.JanWeek(1),
	})

	// Interaction 4: the raw density heatmap, rendered straight through
	// the GPU substrate's point pass and printed as a terminal shade map.
	hm, err := f.HeatmapContext(context.Background(), urbane.HeatmapRequest{Dataset: "taxi", W: 72})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npickup density heatmap (%dx%d, %v):\n", hm.W, hm.H,
		hm.Elapsed.Round(time.Millisecond))
	printHeatmap(hm)
}

// printHeatmap renders the density raster as ASCII shades, darkest where
// pickups concentrate (midtown Manhattan).
func printHeatmap(hm *urbane.Heatmap) {
	shades := []byte(" .:-=+*#%@")
	// Print every other row so terminal cells stay roughly square.
	for y := hm.H - 1; y >= 0; y -= 2 {
		line := make([]byte, hm.W)
		for x := 0; x < hm.W; x++ {
			v := hm.Counts[y*hm.W+x]
			if y > 0 {
				v += hm.Counts[(y-1)*hm.W+x]
			}
			idx := 0
			if hm.Max > 0 && v > 0 {
				// Log scale: taxi density spans orders of magnitude.
				idx = 1 + int(float64(len(shades)-2)*logNorm(v, 2*hm.Max))
			}
			line[x] = shades[idx]
		}
		fmt.Println(string(line))
	}
}

func logNorm(v, max float64) float64 {
	if v <= 1 || max <= 1 {
		return 0
	}
	n := log2(v) / log2(max)
	if n > 1 {
		n = 1
	}
	return n
}

func log2(v float64) float64 {
	n := 0.0
	for v > 1 {
		v /= 2
		n++
	}
	return n + v - 1 // piecewise-linear log2, good enough for shading
}

// view runs one map-view interaction and reports its latency and extremes.
func view(f *urbane.Framework, label string, req urbane.Selection) {
	ch, err := f.MapViewContext(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	var totalAcc fsum.Kahan
	hot := 0
	for i, v := range ch.Values {
		totalAcc.Add(v.Value)
		if v.Value == ch.Max {
			hot = i
		}
	}
	total := totalAcc.Sum()
	interactive := "interactive"
	if ch.Elapsed > 500*time.Millisecond {
		interactive = "TOO SLOW"
	}
	fmt.Printf("%-22s %9v  (%s)  total=%.0f  hottest=%s (%.4g)\n",
		label, ch.Elapsed.Round(time.Millisecond), interactive,
		total, ch.Values[hot].Name, ch.Max)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
