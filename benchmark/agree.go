package main

import (
	"context"
	"fmt"
	"math"
)

// agree runs two full sets of the same code, the second in reverse
// workload order, and compares every end-to-end metric of every workload
// against its bound. It is the benchmark's check on itself: a bound two
// runs of one commit cannot meet would reject every later change at random.
func agree(ctx context.Context, bin string, o options) error {
	var sets [2]map[string]map[string]float64
	ok := true
	for set := range sets {
		sets[set] = map[string]map[string]float64{}
		for i := range workloads {
			wl := &workloads[i]
			if set == 1 {
				wl = &workloads[len(workloads)-1-i]
			}
			oc, err := runWorkload(ctx, bin, wl, o, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			fmt.Printf("set %d %s: %d requests, %d failed\n", set+1, wl.Name, oc.n, oc.failed)
			for _, f := range oc.failures {
				fmt.Println("FAIL:", f)
			}
			ok = ok && oc.correct()
			sets[set][wl.Name] = oc.e2e
		}
	}
	fmt.Printf("\n%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "rel diff", "bound")
	for i := range workloads {
		name := workloads[i].Name
		for _, d := range endToEnd {
			a, b := sets[0][name][d.Name], sets[1][name][d.Name]
			diff := math.Abs(a-b) / a
			verdict := ""
			if diff > d.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %9.4f %7.2f%s\n", name, d.Name, a, b, diff, d.Bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("the two sets disagree beyond a bound, or a run was incorrect")
	}
	fmt.Println("\nboth sets agree within every bound")
	return nil
}
