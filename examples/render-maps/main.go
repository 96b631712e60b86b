// Render maps: produce the actual pixels Urbane shows — a choropleth of
// taxi pickups per neighborhood and a log-scaled pickup-density heatmap —
// as PNG files, drawn by the same rasterizer that evaluates the joins.
//
//	go run ./examples/render-maps [-out DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"image"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/urbane"
	"repro/internal/workload"
)

func main() {
	out := flag.String("out", ".", "output directory")
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	scene := workload.NYC(300_000, 77)
	f := urbane.New(core.NewRasterJoin(core.WithResolution(1024)))
	must(f.AddPointSet(scene.Taxi))
	must(f.AddRegionSet(scene.Neighborhoods))

	// 1. Choropleth: pickups per neighborhood, January 2009.
	pngBytes, err := f.RenderChoroplethContext(context.Background(), urbane.Selection{
		Dataset: "taxi", Layer: "neighborhoods",
		Agg: core.Count, Time: workload.Jan2009(),
	}, 1000)
	must(err)
	write(filepath.Join(*out, "choropleth.png"), pngBytes)

	// 2. Density heatmap of raw pickups.
	hm, err := f.HeatmapContext(context.Background(), urbane.HeatmapRequest{Dataset: "taxi", W: 1000})
	must(err)
	img, err := render.Density(hm.Counts, hm.W, hm.H, render.HeatRamp)
	must(err)
	writeImage(filepath.Join(*out, "heatmap.png"), img)

	// 3. The color legend for the heatmap.
	writeImage(filepath.Join(*out, "legend.png"), render.Legend(512, 24, render.HeatRamp))

	fmt.Println("wrote choropleth.png, heatmap.png, legend.png to", *out)
}

func write(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s (%d bytes)\n", path, len(data))
}

func writeImage(path string, img image.Image) {
	fh, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer fh.Close()
	if err := render.EncodePNG(fh, img); err != nil {
		log.Fatal(err)
	}
	info, _ := fh.Stat()
	fmt.Printf("  %s (%d bytes)\n", path, info.Size())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
