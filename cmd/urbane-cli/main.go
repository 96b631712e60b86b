// Command urbane-cli is an interactive SQL shell over the spatial
// aggregation engines: it generates (or loads) a workload, then reads
// statements of the paper's query form and prints the per-region results
// with the planner's routing decision and latency.
//
//	urbane-cli -points 500000
//	urbane> SELECT COUNT(*) FROM taxi, neighborhoods GROUP BY id
//	urbane> SELECT AVG(fare) FROM taxi, neighborhoods WHERE fare BETWEEN 5 AND 30
//	urbane> \datasets
//	urbane> \quit
//
// Point sets can also be loaded from datagen output:
//
//	urbane-cli -load ./testdata
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/urbane"
	"repro/internal/workload"
)

func main() {
	points := flag.Int("points", 500_000, "taxi points to generate (ignored with -load)")
	seed := flag.Int64("seed", 2009, "generator seed")
	load := flag.String("load", "", "directory of datagen output to load instead of generating")
	buildCube := flag.Bool("cube", true, "materialize a daily cube for taxi x neighborhoods")
	accurate := flag.Bool("accurate", true, "use the exact hybrid raster join")
	top := flag.Int("top", 10, "result rows to print")
	flag.Parse()

	mode := core.Approximate
	if *accurate {
		mode = core.Accurate
	}
	f := urbane.New(core.NewRasterJoin(core.WithMode(mode), core.WithResolution(1024)))

	if *load != "" {
		if err := loadDir(f, *load); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "generating %d taxi points...\n", *points)
		scene := workload.NYC(*points, *seed)
		must(f.AddPointSet(scene.Taxi))
		must(f.AddRegionSet(scene.Neighborhoods))
		must(f.AddRegionSet(scene.Tracts))
		must(f.AddRegionSet(scene.Grid))
		if *buildCube {
			if _, err := f.BuildCube("taxi", "neighborhoods", 86400, []string{"fare"}); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Fprintln(os.Stderr, `ready — try "SELECT COUNT(*) FROM taxi, neighborhoods", \datasets, \quit`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("urbane> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit`, line == `\q`, line == "exit":
			return
		case line == `\datasets`:
			pts := f.PointSetNames()
			layers := f.RegionSetNames()
			sort.Strings(pts)
			sort.Strings(layers)
			fmt.Printf("point sets: %s\nlayers:     %s\n",
				strings.Join(pts, ", "), strings.Join(layers, ", "))
			continue
		case strings.HasPrefix(line, `\`):
			fmt.Println(`commands: \datasets \quit`)
			continue
		}
		runStatement(f, line, *top)
	}
}

func runStatement(f *urbane.Framework, stmt string, top int) {
	exec, err := f.QueryContext(context.Background(), stmt)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	rs := exec.Plan.Request.Regions
	type row struct {
		name string
		v    float64
	}
	rows := make([]row, len(exec.Result.Stats))
	for k, reg := range rs.Regions {
		rows[k] = row{reg.Name, exec.Result.Value(k, exec.Plan.Request.Agg)}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	fmt.Printf("-- %s via %s in %v (%s)\n",
		exec.Plan.Request.Agg, exec.Result.Algorithm,
		exec.Elapsed.Round(time.Microsecond), exec.Plan.Reason)
	n := top
	if n > len(rows) {
		n = len(rows)
	}
	for i := 0; i < n; i++ {
		fmt.Printf("  %-28s %12.4g\n", rows[i].name, rows[i].v)
	}
	if len(rows) > n {
		fmt.Printf("  ... %d more regions\n", len(rows)-n)
	}
}

// loadDir registers every *.csv as a point set and every *.geojson as a
// region layer, named by file basename.
func loadDir(f *urbane.Framework, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		name := strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))
		switch filepath.Ext(e.Name()) {
		case ".csv":
			fh, err := os.Open(path)
			if err != nil {
				return err
			}
			ps, err := data.ReadCSV(fh, name)
			fh.Close()
			if err != nil {
				return fmt.Errorf("loading %s: %w", path, err)
			}
			ps.SortByTime()
			if err := f.AddPointSet(ps); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "loaded %s (%d points)\n", path, ps.Len())
			loaded++
		case ".geojson":
			fh, err := os.Open(path)
			if err != nil {
				return err
			}
			rs, err := data.ReadGeoJSONAuto(fh, name)
			fh.Close()
			if err != nil {
				return fmt.Errorf("loading %s: %w", path, err)
			}
			if err := f.AddRegionSet(rs); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "loaded %s (%d regions)\n", path, rs.Len())
			loaded++
		}
	}
	if loaded == 0 {
		return fmt.Errorf("no .csv or .geojson files in %s", dir)
	}
	return nil
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
