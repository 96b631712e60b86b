// Command urbane-server runs the Urbane demo backend: it generates the
// synthetic NYC workload, registers it with the framework, optionally
// materializes a pre-aggregation cube, and serves the JSON API.
//
// Usage:
//
//	urbane-server -addr :8080 -points 1000000 -cube
//
// Endpoints (all JSON):
//
//	GET  /api/datasets   — registered data sets and layers
//	POST /api/query      — {"stmt": "SELECT COUNT(*) FROM taxi, neighborhoods"}
//	POST /api/append     — columnar point ingest; incremental structures are patched, not rebuilt
//	POST /api/mapview    — choropleth for the map view
//	POST /api/explore    — multi-data-set time series
//	POST /api/rank       — neighborhood similarity ranking
//	GET  /api/cachestats — query-result cache counters
//	GET  /api/stats      — per-endpoint latency histograms and outcome counters
//
// The heavy read endpoints are served through a sharded query-result
// cache with request coalescing (-cache-bytes to size it, 0 to disable;
// -time-snap to quantize time filters to the workload's bucket size).
//
// Every request runs under a context carrying the -query-timeout deadline;
// the join kernels observe it between point batches (-point-batch sets the
// granularity), so an exhausted deadline aborts the render mid-join and
// returns 504. Per-stage timings travel in the X-Urbane-Trace header.
//
// -max-inflight arms admission control: at most that much weighted compute
// runs concurrently, excess requests wait in a short deadline-aware queue
// (-admit-queue, -admit-wait) and are shed with 503 + Retry-After when the
// queue is full or too slow. Cache hits and the observability endpoints
// bypass admission. -faults/-fault-seed arm deterministic fault injection
// (chaos testing only; see internal/fault).
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight requests (up to a 10s grace period), and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/geoblocks"
	"repro/internal/gpu"
	"repro/internal/segment"
	"repro/internal/tcache"
	"repro/internal/urbane"
	"repro/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil, nil); err != nil {
		log.Fatal(err)
	}
}

// run builds the workload and serves the API until ctx is cancelled, then
// shuts down gracefully. ready, when non-nil, receives the bound listen
// address once the server accepts connections. wrap, when non-nil, wraps
// the handler — the shutdown test uses it to hold a request in flight.
func run(ctx context.Context, args []string, ready chan<- net.Addr, wrap func(http.Handler) http.Handler) error {
	fs := flag.NewFlagSet("urbane-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	points := fs.Int("points", 1_000_000, "taxi points to generate")
	seed := fs.Int64("seed", 2009, "generator seed")
	buildCube := fs.Bool("cube", false, "materialize a daily pre-aggregation cube for taxi x neighborhoods")
	resolution := fs.Int("resolution", 1024, "raster join canvas resolution (longest side, pixels)")
	accurate := fs.Bool("accurate", true, "use the exact hybrid raster join")
	cacheBytes := fs.Int64("cache-bytes", urbane.DefaultCacheBytes, "query-result cache capacity in bytes (0 disables)")
	timeSnap := fs.Int64("time-snap", 1, "snap time filters outward to this granularity in seconds (1 = off); above 1 it is also the slab width of the incremental slab fold")
	queryTimeout := fs.Duration("query-timeout", 0, "per-request query deadline; exceeded queries abort mid-join and return 504 (0 = unbounded)")
	pointBatch := fs.Int("point-batch", 0, "max point vertices per draw call — the cancellation granularity of the point pass (0 = one draw)")
	spanCacheBytes := fs.Int64("span-cache-bytes", gpu.DefaultSpanCacheBytes, "region span cache capacity in bytes — compiled polygon rasterizations reused across queries (0 disables)")
	maxInflight := fs.Int64("max-inflight", 0, "admission control: max weighted concurrent query computes; excess requests queue briefly then shed with 503 (0 = disabled)")
	admitQueue := fs.Int("admit-queue", admit.DefaultQueue, "admission wait-queue length; requests beyond it shed immediately")
	admitWait := fs.Duration("admit-wait", admit.DefaultMaxWait, "max time a request waits in the admission queue before shedding (bounded further by its own deadline)")
	faultSpec := fs.String("faults", "", "deterministic fault injection spec, e.g. \"core.pointpass=latency:0.2:5ms,qcache.compute=error:0.05\" (chaos testing only)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the -faults schedule; same seed = same schedule")
	geoBlocks := fs.Bool("geoblocks", false, "enable the pre-aggregated spatial hierarchy: unfiltered polygon aggregation folds stored per-cell aggregates and refines only the boundary fringe")
	segments := fs.Bool("segments", false, "materialize every data set into a columnar segment file and execute ad-hoc queries block-at-a-time with zone-map pruning (out-of-core under -segment-cache-bytes)")
	segCacheBytes := fs.Int64("segment-cache-bytes", segment.DefaultCacheBytes, "decoded-block cache budget per segment store in bytes; datasets larger than this stream from disk")
	slabCacheBytes := fs.Int64("slab-cache-bytes", tcache.DefaultCacheBytes, "slab partial cache capacity in bytes")
	maxSlabs := fs.Int("max-slabs", tcache.DefaultMaxSlabs, "max slabs one window may decompose into; wider windows use the one-shot path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	log.Printf("generating NYC workload: %d taxi points...", *points)
	start := time.Now()
	scene := workload.NYC(*points, *seed)
	aux := []*data.PointSet{
		data.Generate(data.NYC311Config(*points/4, 2009, time.January, *seed+10)),
		data.Generate(data.NYCPhotosConfig(*points/8, 2009, time.January, *seed+20)),
	}
	log.Printf("generated in %v", time.Since(start).Round(time.Millisecond))

	mode := core.Approximate
	if *accurate {
		mode = core.Accurate
	}
	dev := gpu.New(gpu.WithSpanCacheBytes(*spanCacheBytes))
	f := urbane.New(core.NewRasterJoin(core.WithDevice(dev),
		core.WithMode(mode), core.WithResolution(*resolution),
		core.WithPointBatch(*pointBatch)))
	for _, err := range []error{
		f.AddPointSet(scene.Taxi),
		f.AddPointSet(aux[0]),
		f.AddPointSet(aux[1]),
		f.AddRegionSet(scene.Neighborhoods),
		f.AddRegionSet(scene.Tracts),
		f.AddRegionSet(scene.Grid),
	} {
		if err != nil {
			return err
		}
	}

	if *geoBlocks {
		f.EnableGeoBlocks(0)
		log.Printf("geoblocks hierarchy enabled (maxlevel %d); indexes build lazily on first query per data set",
			geoblocks.DefaultMaxLevel)
	}

	if *timeSnap > 1 {
		f.EnableIncremental(*timeSnap, *slabCacheBytes, *maxSlabs)
		log.Printf("incremental maintenance enabled: %ds slabs, %.1f MiB partial cache, <=%d slabs per window",
			*timeSnap, float64(*slabCacheBytes)/(1<<20), *maxSlabs)
	}

	if *segments {
		dir, err := os.MkdirTemp("", "urbane-segments-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		start = time.Now()
		var segBytes int64
		for _, ps := range []*data.PointSet{scene.Taxi, aux[0], aux[1]} {
			path := filepath.Join(dir, ps.Name+".useg")
			file, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := segment.Write(file, ps); err != nil {
				file.Close()
				return err
			}
			if err := file.Close(); err != nil {
				return err
			}
			st, err := segment.Open(path, segment.WithCacheBytes(*segCacheBytes))
			if err != nil {
				return err
			}
			defer st.Close()
			if err := f.AttachSegments(ps.Name, st); err != nil {
				return err
			}
			if info, err := os.Stat(path); err == nil {
				segBytes += info.Size()
			}
		}
		log.Printf("segment-backed execution enabled: %d sets, %.1f MiB on disk, %.1f MiB column cache each, built in %v",
			3, float64(segBytes)/(1<<20), float64(*segCacheBytes)/(1<<20),
			time.Since(start).Round(time.Millisecond))
	}

	if *buildCube {
		log.Printf("building daily pre-aggregation cube (taxi x neighborhoods)...")
		start = time.Now()
		c, err := f.BuildCube("taxi", "neighborhoods", 86400, []string{"fare"})
		if err != nil {
			return err
		}
		log.Printf("cube: %d cells in %v", c.MemoryCells(), time.Since(start).Round(time.Millisecond))
	}

	opts := []urbane.ServerOption{
		urbane.WithCache(*cacheBytes), urbane.WithTimeSnap(*timeSnap),
		urbane.WithQueryTimeout(*queryTimeout),
	}
	if *maxInflight > 0 {
		opts = append(opts, urbane.WithAdmission(admit.New(*maxInflight, *admitQueue, *admitWait)))
		log.Printf("admission control: max-inflight=%d queue=%d wait=%v",
			*maxInflight, *admitQueue, *admitWait)
	}
	if *faultSpec != "" {
		reg, err := fault.ParseSpec(*faultSeed, *faultSpec)
		if err != nil {
			return err
		}
		opts = append(opts, urbane.WithFaults(reg))
		log.Printf("fault injection ARMED (seed %d): %s — for chaos testing only", *faultSeed, *faultSpec)
	}
	var handler http.Handler = urbane.NewServer(f, opts...)
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("urbane backend listening on %s", ln.Addr())
	fmt.Printf("try: curl -s http://%s/api/datasets\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	// Bounded edges: a client may not hold a connection open by trickling
	// its headers or body, or by idling between requests. There is no
	// WriteTimeout — how long a reply may take is -query-timeout's job.
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown request
	case <-ctx.Done():
	}

	log.Printf("shutdown requested; draining in-flight requests...")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("shutdown complete")
	return nil
}
