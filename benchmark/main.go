// Command benchmark is the repository's one performance instrument: it
// builds cmd/urbane-server, boots it as a subprocess per workload, drives
// it over real HTTP from closed-loop clients in this process, checks every
// answer, and prints every metric by name with its unit. README.md in this
// directory is the catalogue; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
//	go run ./benchmark -seed 1                        # all five workloads, end-to-end metrics
//	go run ./benchmark -seed 1 -trace 1               # plus spans, the layer tier and the latency budget
//	go run ./benchmark -workload cold_adhoc -seed 1   # one workload; last stdout line is the result JSON
//	go run ./benchmark -agree                         # two full sets, compared against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	agree    bool
}

// scenePoints is the taxi set's size in every server this command boots.
// It is not a flag: the bounds, segment_scan's 16 MiB block cache (against
// ~60 MiB of taxi columns) and the oracle's sample are calibrated for this
// scene, and numbers from another would carry the same metric names.
const scenePoints = 1_000_000

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the result JSON line (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "request-stream seed; the data scene is always seed 2009")
	flag.IntVar(&o.seconds, "seconds", 12, "measured seconds per workload pass")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: spans, per-layer metrics, layer tier and latency budget")
	flag.BoolVar(&o.agree, "agree", false, "run two full sets and fail if any end-to-end metric disagrees beyond its bound")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	if o.seconds < 1 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments (see -h)")
	}
	var todo []*workloadDef
	if o.workload != "" {
		wl := findWorkload(o.workload)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []*workloadDef{wl}
	} else {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	}
	for _, wl := range todo {
		if wl.Clients > runtime.NumCPU() {
			return fmt.Errorf("workload %s needs %d clients but this host has %d CPUs: the generator would contend with itself",
				wl.Name, wl.Clients, runtime.NumCPU())
		}
	}
	fmt.Printf("# benchmark seed=%d seconds=%d points=%d trace=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		o.seed, o.seconds, scenePoints, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	bin, err := buildServer(ctx, buildDir)
	if err != nil {
		return err
	}
	if o.agree {
		return agree(ctx, bin, o)
	}

	// A traced run keeps one recorder for the process. The layer tier does
	// not depend on the workload, so it runs once, before the servers.
	var rec *recorder
	var tier map[string]float64
	var budget []budgetRow
	if o.trace == 1 {
		rec = newRecorder()
		if tier, budget, err = layerTier(ctx, scenePoints, rec); err != nil {
			return fmt.Errorf("layer tier: %w", err)
		}
	}

	ok := true
	digests := map[string]string{}
	var last result
	for _, wl := range todo {
		oc, err := runWorkload(ctx, bin, wl, o, rec)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		for k, v := range tier {
			oc.layers[k] = v
		}
		last = oc.result(rec != nil) // before printing: a metric the run did not produce is a failure too
		oc.print()
		ok = ok && oc.correct()
		digests[wl.Name] = oc.digest
	}
	if rec != nil {
		fmt.Println("\n-- layer tier (in process, the same for every workload)")
		for _, d := range tierLayerMetrics {
			fmt.Printf("%-30s %14.4f %s\n", d.Name, tier[d.Name], d.Unit)
		}
		printBudget(budget, tier)
		name := "all"
		if o.workload != "" {
			name = o.workload
		}
		spanFile := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", name, o.seed))
		if err := rec.write(spanFile); err != nil {
			return err
		}
		printSelfTimes(selfTimes(rec.spans))
		fmt.Println("span file:", spanFile)
	}
	if o.workload == "" {
		if err := sameDigest(digests); err != nil {
			fmt.Println("FAIL:", err)
			ok = false
		}
	} else {
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !ok {
		return fmt.Errorf("incorrect: see the FAIL lines above")
	}
	return nil
}

// commit is the VCS revision being measured: the one the build recorded
// (go build does, go run does not), else the work tree's HEAD, else
// "unknown" (a checkout that is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// outcome is one workload's reportable result.
type outcome struct {
	wl       *workloadDef
	e2e      map[string]float64
	layers   map[string]float64 // traced runs only
	n        int                // measured requests: the samples behind every figure
	failed   int
	digest   string
	host     string // the run's host factor and what it was derived from
	failures []string
}

func (oc *outcome) correct() bool { return oc.failed == 0 && len(oc.failures) == 0 }

func (oc *outcome) result(traced bool) result {
	defs, vals := endToEnd, oc.e2e
	if traced {
		defs, vals = perLayer(), oc.layers
	}
	metrics, missing := pick(defs, vals)
	for _, m := range missing {
		oc.failures = append(oc.failures, "metric not produced: "+m)
	}
	return result{Correct: oc.correct(), Attempted: oc.n, Failed: oc.failed, Metrics: metrics}
}

func (oc *outcome) print() {
	procs := "default"
	if p := oc.wl.Server(scenePoints).Procs; p > 0 {
		procs = strconv.Itoa(p)
	}
	fmt.Printf("\n== %s (clients=%d, server GOMAXPROCS=%s, %d measured requests) — %s\n",
		oc.wl.Name, oc.wl.Clients, procs, oc.n, oc.wl.Why)
	for _, d := range endToEnd {
		fmt.Printf("%-26s %14.4f %-6s n=%d\n", d.Name, oc.e2e[d.Name], d.Unit, oc.n)
	}
	fmt.Printf("%-26s %s\n", "host factor (times x this)", oc.host)
	fmt.Printf("%-26s %14.4f %-6s failed=%d attempted=%d\n", "fail_share", float64(oc.failed)/float64(max(oc.n, 1)), "share", oc.failed, oc.n)
	if oc.digest != "" {
		fmt.Printf("%-26s %s (client 0, first %d replies)\n", "response_digest", oc.digest, digestPrefix)
	}
	if oc.layers != nil {
		fmt.Println("-- per layer, from the traced pass")
		for _, d := range passLayerMetrics() {
			fmt.Printf("%-30s %14.4f %s\n", d.Name, oc.layers[d.Name], d.Unit)
		}
	}
	for _, f := range oc.failures {
		fmt.Println("FAIL:", f)
	}
}

// sameDigest enforces byte-identity across the workloads that issue the
// identical request sequence: segment files against RAM (the storage
// contract) and every CPU against one (parallel equals sequential).
func sameDigest(byName map[string]string) error {
	ref := byName["cold_adhoc"]
	if ref == "" {
		return fmt.Errorf("run too short for a %d-reply response digest", digestPrefix)
	}
	for _, name := range []string{"cold_adhoc_allcpu", "segment_scan"} {
		if byName[name] != ref {
			return fmt.Errorf("cold_adhoc digest %s != %s digest %q", ref, name, byName[name])
		}
	}
	fmt.Println("\ncold_adhoc, cold_adhoc_allcpu and segment_scan response digests are equal")
	return nil
}

// pass boots a fresh server, drives the workload once, and stops the
// server. boots > 1 starts and stops the server that many times first-to-
// last, returning every start's duration; the last start serves the run.
func pass(ctx context.Context, bin string, wl *workloadDef, o options, boots int, rec *recorder) (*runData, []float64, float64, error) {
	cfg := wl.Server(scenePoints)
	var setups []float64
	var srv *serverProc
	// No way out of this function, a panic in the clients included, leaves
	// a server behind: stop and kill both wait until the process is reaped.
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for i := 0; i < boots; i++ {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return nil, nil, 0, err
			}
		}
		var err error
		if srv, err = startServer(bin, buildDir, cfg); err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	rd := drive(ctx, wl, srv.base, o.seed, scenePoints, time.Duration(o.seconds)*time.Second, 0, rec)
	rss, err := srv.rssPeakMB()
	if err != nil {
		rd.problems = append(rd.problems, "reading server RSS: "+err.Error())
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		rd.problems = append(rd.problems, err.Error())
	}
	if ctx.Err() != nil {
		return nil, nil, 0, ctx.Err()
	}
	return rd, setups, rss, nil
}

// maxTraceShare is the most of the clients' time span recording may take
// before the traced pass stops being a fair picture of the untraced one.
const maxTraceShare = 0.05

// runWorkload produces one workload's outcome. An untraced run (rec nil)
// starts the server setupBoots times and reports the end-to-end metrics. A
// traced run starts it once, records every request's spans into rec and
// adds the HTTP-side per-layer metrics.
func runWorkload(ctx context.Context, bin string, wl *workloadDef, o options, rec *recorder) (*outcome, error) {
	boots := setupBoots
	if rec != nil {
		boots = 1
	}
	rd, setups, rss, err := pass(ctx, bin, wl, o, boots, rec)
	if err != nil {
		return nil, err
	}
	rd.verify()
	ls := rd.latency()
	oc := &outcome{wl: wl, digest: rd.digest(), e2e: map[string]float64{
		"setup_s":           median(setups) * ls.factor, // the boots end seconds before the window the factor is from
		"latency_p50_ms":    ls.p50,
		"latency_p95_ms":    ls.p95,
		"throughput_rps":    ls.throughput,
		"interactive_share": ls.interactiveShare,
		"rss_peak_mb":       rss,
	}}
	oc.n, oc.failed = rd.counts()
	oc.host = fmt.Sprintf("%.4f = %.1f ms / %.4f ms kernel lower quartile, %d kernel runs; latency_p50_ms as the clock read it: %.4f",
		ls.factor, calibRefMs, calibMs(rd.calib), len(rd.calib), ls.rawP50)
	oc.failures = rd.failures(5)
	if rec != nil {
		oc.layers = rd.layerMetrics()
		if share := oc.layers["trace.overhead_share"]; share >= maxTraceShare {
			oc.failures = append(oc.failures, fmt.Sprintf("recording spans took %.3f of the clients' time (limit %.2f)", share, maxTraceShare))
		}
	}
	return oc, nil
}

// printSelfTimes summarizes the span file: total self time per span name.
func printSelfTimes(self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("-- self time by span (traced passes + layer tier)")
	for _, n := range names {
		fmt.Printf("%-30s %12.3f ms\n", n, float64(self[n])/float64(time.Millisecond))
	}
}
