// Command urbane-bench regenerates the paper's own exhibits: one experiment
// per table/figure in DESIGN.md's per-experiment index (E1–E13). Per-layer
// and end-to-end performance numbers come from the benchmark instead
// (`bash benchmark/run.sh --trace 1`, see benchmark/README.md).
// Output is textual — the same rows the paper's plots are drawn from.
//
// Usage:
//
//	urbane-bench -exp all            # run everything
//	urbane-bench -exp E3 -scale 2    # one experiment, 2x the default size
//	urbane-bench -list               # describe the experiments
//
// Absolute timings depend on the host (the GPU is simulated in software);
// the paper-versus-measured comparison lives in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// experiment is one regenerable exhibit.
type experiment struct {
	id    string
	title string
	run   func(scale float64)
}

var experiments = []experiment{
	{"E1", "Map view: taxi pickups Jan 2009 by neighborhood (Fig. 1)", runE1},
	{"E2", "Raster pipeline correctness: approximate vs accurate vs exact (Fig. 2)", runE2},
	{"E3", "Query latency vs number of points (performance figure)", runE3},
	{"E4", "Query latency vs number of polygons (performance figure)", runE4},
	{"E5", "Bounded raster join: error vs epsilon (accuracy table)", runE5},
	{"E6", "Pre-aggregation cube vs raster join on ad-hoc queries", runE6},
	{"E7", "Interactivity across resolutions (demo scenario 3.1)", runE7},
	{"E8", "Data exploration view: multi-data-set time series", runE8},
	{"E9", "Hybrid ablation: approximate vs accurate vs index join", runE9},
	{"E11", "OD flow view: raster flow join vs geometric baseline", runE11},
	{"E12", "Filter selectivity: ad-hoc constraints cost nothing extra", runE12},
	{"E13", "Polygon level-of-detail: simplification tolerance ablation", runE13},
}

func main() {
	exp := flag.String("exp", "all", "experiment id (E1..E13; E10 is retired) or 'all'")
	scale := flag.Float64("scale", 1.0, "workload scale factor (points multiply by this)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, e := range experiments {
			fmt.Fprintf(w, "%s\t%s\n", e.id, e.title)
		}
		w.Flush()
		return
	}
	want := strings.ToUpper(*exp)
	ran := 0
	for _, e := range experiments {
		if want != "ALL" && e.id != want {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.title)
		start := time.Now()
		e.run(*scale)
		fmt.Printf("--- %s done in %v ---\n", e.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
}

// table prints aligned rows.
type table struct {
	w *tabwriter.Writer
}

func newTable(headers ...string) *table {
	t := &table{w: tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)}
	fmt.Fprintln(t.w, strings.Join(headers, "\t"))
	rule := make([]string, len(headers))
	for i, h := range headers {
		rule[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(t.w, strings.Join(rule, "\t"))
	return t
}

func (t *table) row(cells ...any) {
	strs := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			strs[i] = fmt.Sprintf("%.3g", v)
		case time.Duration:
			strs[i] = v.Round(10 * time.Microsecond).String()
		default:
			strs[i] = fmt.Sprint(c)
		}
	}
	fmt.Fprintln(t.w, strings.Join(strs, "\t"))
}

func (t *table) flush() { t.w.Flush() }

// timeMedian runs fn reps times and returns the median wall time.
func timeMedian(reps int, fn func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// scaled returns base*scale, at least floor.
func scaled(base int, scale float64, floor int) int {
	n := int(float64(base) * scale)
	if n < floor {
		n = floor
	}
	return n
}
