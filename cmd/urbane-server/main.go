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
// the join kernels observe it between point blocks, so an exhausted
// deadline aborts the render mid-join and returns 504. Per-stage timings
// travel in the X-Urbane-Trace header.
//
// -max-inflight arms admission control: at most that much weighted compute
// runs concurrently, excess requests wait in a short deadline-aware queue
// (admit.DefaultQueue slots, admit.DefaultMaxWait each) and are shed with
// 503 + Retry-After when the queue is full or too slow. Cache hits and the
// observability endpoints bypass admission.
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
	"repro/internal/geoblocks"
	"repro/internal/segment"
	"repro/internal/tcache"
	"repro/internal/urbane"
	"repro/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], nil, nil)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// config is urbane-server's command line.
type config struct {
	addr          string
	points        int
	seed          int64
	cube          bool
	resolution    int
	accurate      bool
	cacheBytes    int64
	timeSnap      int64
	queryTimeout  time.Duration
	maxInflight   int64
	geoBlocks     bool
	segments      bool
	segCacheBytes int64
}

// newFlagSet defines every urbane-server flag on c. run parses the command
// line with it, and TestReadmeFlagTable holds README's flag table to it.
func newFlagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("urbane-server", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.points, "points", 1_000_000, "taxi points to generate")
	fs.Int64Var(&c.seed, "seed", 2009, "generator seed")
	fs.BoolVar(&c.cube, "cube", false, "materialize a daily pre-aggregation cube for taxi x neighborhoods")
	fs.IntVar(&c.resolution, "resolution", 1024, "raster join canvas resolution (longest side, pixels)")
	fs.BoolVar(&c.accurate, "accurate", true, "use the exact hybrid raster join")
	fs.Int64Var(&c.cacheBytes, "cache-bytes", urbane.DefaultCacheBytes, "query-result cache capacity in bytes (0 disables)")
	fs.Int64Var(&c.timeSnap, "time-snap", 1, "snap time filters outward to this granularity in seconds (1 = off); above 1 it is also the slab width of the incremental slab fold")
	fs.DurationVar(&c.queryTimeout, "query-timeout", 0, "per-request query deadline; exceeded queries abort mid-join and return 504 (0 = unbounded)")
	fs.Int64Var(&c.maxInflight, "max-inflight", 0, "admission control: max weighted concurrent query computes; excess requests queue briefly then shed with 503 (0 = disabled)")
	fs.BoolVar(&c.geoBlocks, "geoblocks", false, "enable the pre-aggregated spatial hierarchy: unfiltered polygon aggregation folds stored per-cell aggregates and refines only the boundary fringe")
	fs.BoolVar(&c.segments, "segments", false, "materialize every data set into a columnar segment file and execute ad-hoc queries block-at-a-time with zone-map pruning (out-of-core under -segment-cache-bytes)")
	fs.Int64Var(&c.segCacheBytes, "segment-cache-bytes", segment.DefaultCacheBytes, "decoded-block cache budget per segment store in bytes; datasets larger than this stream from disk")
	return fs
}

// validate rejects the values the server would otherwise crash on or
// quietly reinterpret, naming the flag.
func (c *config) validate() error {
	switch {
	case c.points < 0:
		return fmt.Errorf("-points %d: must not be negative", c.points)
	case c.resolution <= 0:
		return fmt.Errorf("-resolution %d: must be positive", c.resolution)
	case c.cacheBytes < 0:
		return fmt.Errorf("-cache-bytes %d: must not be negative (0 disables the cache)", c.cacheBytes)
	case c.segCacheBytes < 0:
		return fmt.Errorf("-segment-cache-bytes %d: must not be negative", c.segCacheBytes)
	case c.queryTimeout < 0:
		return fmt.Errorf("-query-timeout %v: must not be negative (0 = unbounded)", c.queryTimeout)
	case c.maxInflight < 0:
		return fmt.Errorf("-max-inflight %d: must not be negative (0 disables admission)", c.maxInflight)
	case c.timeSnap < 1:
		return fmt.Errorf("-time-snap %d: must be at least 1 (1 = off)", c.timeSnap)
	}
	return nil
}

// run builds the workload and serves the API until ctx is cancelled, then
// shuts down gracefully. ready, when non-nil, receives the bound listen
// address once the server accepts connections. wrap, when non-nil, wraps
// the handler — the shutdown test uses it to hold a request in flight.
func run(ctx context.Context, args []string, ready chan<- net.Addr, wrap func(http.Handler) http.Handler) error {
	var cfg config
	if err := newFlagSet(&cfg).Parse(args); err != nil {
		return err
	}
	if err := cfg.validate(); err != nil {
		return err
	}

	log.Printf("generating NYC workload: %d taxi points...", cfg.points)
	start := time.Now()
	scene := workload.NYC(cfg.points, cfg.seed)
	aux := []*data.PointSet{
		data.Generate(data.NYC311Config(cfg.points/4, 2009, time.January, cfg.seed+10)),
		data.Generate(data.NYCPhotosConfig(cfg.points/8, 2009, time.January, cfg.seed+20)),
	}
	log.Printf("generated in %v", time.Since(start).Round(time.Millisecond))

	mode := core.Approximate
	if cfg.accurate {
		mode = core.Accurate
	}
	f := urbane.New(core.NewRasterJoin(core.WithMode(mode), core.WithResolution(cfg.resolution)))
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

	if cfg.geoBlocks {
		f.EnableGeoBlocks(0)
		log.Printf("geoblocks hierarchy enabled (maxlevel %d); indexes build lazily on first query per data set",
			geoblocks.DefaultMaxLevel)
	}

	if cfg.timeSnap > 1 {
		f.EnableIncremental(cfg.timeSnap, 0, 0)
		log.Printf("incremental maintenance enabled: %ds slabs, %.1f MiB partial cache, <=%d slabs per window",
			cfg.timeSnap, float64(tcache.DefaultCacheBytes)/(1<<20), tcache.DefaultMaxSlabs)
	}

	if cfg.segments {
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
			st, err := segment.Open(path, segment.WithCacheBytes(cfg.segCacheBytes))
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
			3, float64(segBytes)/(1<<20), float64(cfg.segCacheBytes)/(1<<20),
			time.Since(start).Round(time.Millisecond))
	}

	if cfg.cube {
		log.Printf("building daily pre-aggregation cube (taxi x neighborhoods)...")
		start = time.Now()
		c, err := f.BuildCube("taxi", "neighborhoods", 86400, []string{"fare"})
		if err != nil {
			return err
		}
		log.Printf("cube: %d cells in %v", c.MemoryCells(), time.Since(start).Round(time.Millisecond))
	}

	opts := []urbane.ServerOption{
		urbane.WithCache(cfg.cacheBytes), urbane.WithTimeSnap(cfg.timeSnap),
		urbane.WithQueryTimeout(cfg.queryTimeout),
	}
	if cfg.maxInflight > 0 {
		opts = append(opts, urbane.WithAdmission(admit.New(cfg.maxInflight, 0, 0)))
		log.Printf("admission control: max-inflight=%d queue=%d wait=%v",
			cfg.maxInflight, admit.DefaultQueue, admit.DefaultMaxWait)
	}
	var handler http.Handler = urbane.NewServer(f, opts...)
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", cfg.addr)
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
