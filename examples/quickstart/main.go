// Quickstart: generate a small synthetic taxi data set, run one spatial
// aggregation with Raster Join, and print the choropleth rows.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/urbane"
	"repro/internal/workload"
)

func main() {
	// 1. A scene: 200k synthetic taxi pickups over ~260 NYC neighborhoods.
	scene := workload.NYC(200_000, 42)

	// 2. The Urbane backend with an exact (hybrid accurate) raster joiner.
	f := urbane.New(core.NewRasterJoin(
		core.WithMode(core.Accurate),
		core.WithResolution(1024),
	))
	if err := f.AddPointSet(scene.Taxi); err != nil {
		log.Fatal(err)
	}
	if err := f.AddRegionSet(scene.Neighborhoods); err != nil {
		log.Fatal(err)
	}

	// 3. The paper's query, in its SQL form: taxi pickups per neighborhood
	//    in January 2009.
	jan := workload.Jan2009()
	stmt := fmt.Sprintf(
		"SELECT COUNT(*) FROM taxi, neighborhoods WHERE time BETWEEN %d AND %d GROUP BY id",
		jan.Start, jan.End)
	exec, err := f.QueryContext(context.Background(), stmt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query:     %s\n", stmt)
	fmt.Printf("algorithm: %s\n", exec.Result.Algorithm)
	fmt.Printf("latency:   %v\n", exec.Elapsed)
	fmt.Printf("canvas:    %dx%d px (%.0f m/px)\n\n",
		exec.Result.CanvasW, exec.Result.CanvasH, exec.Result.PixelSize)

	// 4. Top ten neighborhoods by pickups.
	type row struct {
		name  string
		count int64
	}
	rows := make([]row, 0, len(exec.Result.Stats))
	for k, st := range exec.Result.Stats {
		rows = append(rows, row{scene.Neighborhoods.Regions[k].Name, st.Count})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	fmt.Println("busiest neighborhoods:")
	for i := 0; i < 10 && i < len(rows); i++ {
		fmt.Printf("  %2d. %-22s %8d pickups\n", i+1, rows[i].name, rows[i].count)
	}
}
