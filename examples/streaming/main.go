// Streaming: aggregate a point file larger than memory. The taxi data is
// written to a CSV on disk, then streamed back through the raster join in
// fixed-size batches — only one batch (plus the canvas textures) is ever
// resident, the aggregation semantics are identical to a monolithic join,
// and the accurate hybrid stays exact.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/workload"
)

func main() {
	const points = 400_000
	const batchRows = 50_000

	scene := workload.NYC(points, 11)

	// Stage the data on disk — the stand-in for a file too big to load.
	dir, err := os.MkdirTemp("", "urbane-stream")
	must(err)
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "taxi.csv")
	fh, err := os.Create(path)
	must(err)
	must(data.WriteCSV(fh, scene.Taxi))
	must(fh.Close())
	info, _ := os.Stat(path)
	fmt.Printf("staged %d trips to %s (%.1f MB)\n\n", points, path,
		float64(info.Size())/(1<<20))

	// Streaming aggregation: AVG(fare) per neighborhood, exact.
	rj := core.NewRasterJoin(core.WithResolution(1024), core.WithMode(core.Accurate))
	stream, err := rj.NewStream(scene.Neighborhoods, core.Avg, "fare", nil, nil)
	must(err)

	start := time.Now()
	in, err := os.Open(path)
	must(err)
	defer in.Close()
	must(data.StreamCSV(in, "taxi", batchRows, func(batch *data.PointSet) error {
		return stream.AddContext(context.Background(), batch)
	}))
	res, err := stream.FinalizeContext(context.Background())
	must(err)
	elapsed := time.Since(start)

	fmt.Printf("streamed %d batches of <= %d rows in %v (%s)\n",
		stream.Batches(), batchRows, elapsed.Round(time.Millisecond), res.Algorithm)

	// Cross-check against the monolithic join.
	mono, err := rj.Join(core.Request{
		Points: scene.Taxi, Regions: scene.Neighborhoods,
		Agg: core.Avg, Attr: "fare",
	})
	must(err)
	for k := range res.Stats {
		if res.Stats[k].Count != mono.Stats[k].Count {
			log.Fatalf("region %d diverged: %d vs %d",
				k, res.Stats[k].Count, mono.Stats[k].Count)
		}
	}
	fmt.Println("verified: streamed result identical to the monolithic join")

	// The answer itself: priciest average fares.
	best, bestV := 0, 0.0
	for k := range res.Stats {
		if v := res.Value(k, core.Avg); v > bestV && res.Stats[k].Count > 100 {
			best, bestV = k, v
		}
	}
	fmt.Printf("\npriciest neighborhood: %s (avg fare $%.2f over %d trips)\n",
		scene.Neighborhoods.Regions[best].Name, bestV, res.Stats[best].Count)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
