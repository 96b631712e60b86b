// Streaming: aggregate a point file larger than memory. The taxi data is
// written to a CSV on disk, streamed back in fixed-size batches that are
// appended to a columnar segment file, and the raster join then reads that
// file block at a time under a small decoded-block cache — only one CSV
// batch, a few blocks and the canvas textures are ever resident, the
// aggregation semantics are identical to a monolithic join, and the
// accurate hybrid stays exact.
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
	"repro/internal/segment"
	"repro/internal/workload"
)

func main() {
	const points = 400_000
	const batchRows = 50_000
	const cacheBytes = 4 << 20

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

	// Stream the CSV into a segment file, one batch at a time.
	start := time.Now()
	segPath := filepath.Join(dir, "taxi.useg")
	out, err := os.Create(segPath)
	must(err)
	w := segment.NewWriter(out)
	in, err := os.Open(path)
	must(err)
	defer in.Close()
	batches := 0
	must(data.StreamCSV(in, "taxi", batchRows, func(batch *data.PointSet) error {
		batches++
		return w.Append(batch)
	}))
	must(w.Close())
	must(out.Close())
	store, err := segment.Open(segPath, segment.WithCacheBytes(cacheBytes))
	must(err)
	defer store.Close()

	// Out-of-core aggregation: AVG(fare) per neighborhood, exact.
	rj := core.NewRasterJoin(core.WithResolution(1024), core.WithMode(core.Accurate))
	res, err := rj.JoinContext(context.Background(), core.Request{
		Source: store, Regions: scene.Neighborhoods, Agg: core.Avg, Attr: "fare",
	})
	must(err)
	elapsed := time.Since(start)

	fmt.Printf("appended %d batches of <= %d rows, joined %d blocks under a %d MiB cache in %v (%s)\n",
		batches, batchRows, store.NumBlocks(), cacheBytes>>20, elapsed.Round(time.Millisecond), res.Algorithm)

	// Cross-check against the monolithic in-RAM join.
	mono, err := rj.Join(core.Request{
		Points: scene.Taxi, Regions: scene.Neighborhoods,
		Agg: core.Avg, Attr: "fare",
	})
	must(err)
	for k := range res.Stats {
		if res.Stats[k] != mono.Stats[k] {
			log.Fatalf("region %d diverged: %+v vs %+v", k, res.Stats[k], mono.Stats[k])
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
