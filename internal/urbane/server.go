package urbane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/geoblocks"
	"repro/internal/lru"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/tcache"
	"repro/internal/trace"
)

// Server exposes the framework over the JSON API the demo frontend speaks.
// The heavy read endpoints (/api/query, /api/mapview, /api/heatmap,
// /api/delta, /api/tile/, /api/render/choropleth.png) are served through a
// sharded query-result cache with request coalescing; see cache.go and
// internal/qcache.
type Server struct {
	f       *Framework
	mux     *http.ServeMux
	cache   *qcache.Cache     // nil = caching disabled
	snap    int64             // time-filter snap granularity, >= 1
	timeout time.Duration     // per-request query deadline; 0 = unbounded
	metrics *trace.Registry   // per-endpoint latency histograms and gauges
	admit   *admit.Controller // nil = admission control disabled
	faults  *fault.Registry   // nil = fault injection disarmed

	// epochEvictions counts cache entries reclaimed by per-data-set epoch
	// sweeps (appends), as opposed to whole-generation invalidations.
	epochEvictions atomic.Uint64
}

// NewServer wraps a framework. By default responses are cached in
// DefaultCacheBytes of memory; see WithCache, WithTimeSnap,
// WithQueryTimeout.
func NewServer(f *Framework, opts ...ServerOption) *Server {
	s := &Server{
		f: f, mux: http.NewServeMux(),
		cache:   qcache.New(DefaultCacheBytes),
		snap:    1,
		metrics: trace.NewRegistry(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("/api/datasets", s.handleDatasets)
	s.mux.HandleFunc("/api/cachestats", s.handleCacheStats)
	s.mux.HandleFunc("/api/stats", s.handleStats)
	s.mux.HandleFunc("/api/query", s.handleQuery)
	s.mux.HandleFunc("/api/append", s.handleAppend)
	s.mux.HandleFunc("/api/mapview", s.handleMapView)
	s.mux.HandleFunc("/api/explore", s.handleExplore)
	s.mux.HandleFunc("/api/rank", s.handleRank)
	s.mux.HandleFunc("/api/heatmap", s.handleHeatmap)
	s.mux.HandleFunc("/api/regions", s.handleRegions)
	s.mux.HandleFunc("/api/flows", s.handleFlows)
	s.mux.HandleFunc("/api/delta", s.handleDelta)
	s.mux.HandleFunc("/api/polygon", s.handlePolygon)
	s.mux.HandleFunc("/api/render/choropleth.png", s.handleChoroplethPNG)
	s.mux.HandleFunc("/api/tile/", s.handleTile)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// ServeHTTP implements http.Handler. Every request runs under the server
// middleware: a context that carries the query deadline (WithQueryTimeout)
// and a fresh trace, a response writer that stamps the X-Urbane-Trace and
// X-Urbane-Elapsed-Ms headers the moment the status is written (so error
// paths carry them too), and the per-endpoint metrics the /api/stats
// endpoint reports.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := endpointName(r.URL.Path)
	ctx := r.Context()
	if s.timeout > 0 && strings.HasPrefix(r.URL.Path, "/api/") {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	tr := trace.New(name)
	ctx = trace.NewContext(ctx, tr)
	if s.faults != nil {
		ctx = fault.NewContext(ctx, s.faults)
	}
	end := s.metrics.Endpoint(name).Begin()
	sw := &statusWriter{ResponseWriter: w, tr: tr}
	s.mux.ServeHTTP(sw, r.WithContext(ctx))
	end(sw.status, tr.Elapsed())
}

// endpointName collapses a request path to its metrics label. Tile requests
// share one label (their z/x/y would explode the registry's cardinality);
// everything outside /api is the index.
func endpointName(path string) string {
	switch {
	case strings.HasPrefix(path, "/api/tile/"):
		return "/api/tile/"
	case strings.HasPrefix(path, "/api/"):
		return path
	default:
		return "/"
	}
}

// statusWriter injects the trace and elapsed headers when the response
// status is committed — the only point that covers success and error paths
// alike — and records the status for outcome classification.
type statusWriter struct {
	http.ResponseWriter
	tr     *trace.Trace
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(status int) {
	if !sw.wrote {
		sw.wrote = true
		sw.status = status
		h := sw.Header()
		if h.Get(elapsedHeader) == "" {
			h.Set(elapsedHeader, strconv.FormatFloat(
				float64(sw.tr.Elapsed())/float64(time.Millisecond), 'f', 3, 64))
		}
		h.Set(traceHeader, sw.tr.Header())
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.WriteHeader(http.StatusOK)
	}
	return sw.ResponseWriter.Write(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the unified error envelope: every failing endpoint answers
// {"error":{"status":...,"code":"...","message":"..."}}.
type errorBody struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]errorBody{"error": {
		Status: status, Code: errorCode(status), Message: err.Error(),
	}})
}

// writeShed answers a request that admission refused: the standard error
// envelope as 503 overloaded plus a Retry-After hint sized from the
// controller's queue wait bound.
func (s *Server) writeShed(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After",
		strconv.Itoa(int(s.admit.RetryAfter()/time.Second)))
	writeError(w, http.StatusServiceUnavailable, err)
}

// endpointWeight is the admission cost of one compute at the endpoint.
// Image renders weigh 2 — a full raster join plus a PNG encode — so under
// pressure two tile renders occupy the slots four JSON aggregations would.
func endpointWeight(name string) int64 {
	switch name {
	case "/api/tile/", "/api/render/choropleth.png":
		return 2
	default:
		return 1
	}
}

// admitted wraps a compute function with admission control. It sits inside
// the cache layer's compute path, so cache hits, 304 revalidations, and
// coalesced waiters never touch the semaphore — only work that would
// actually occupy the join kernels is counted against -max-inflight.
func (s *Server) admitted(weight int64, compute func(context.Context) ([]byte, error)) func(context.Context) ([]byte, error) {
	if s.admit == nil {
		return compute
	}
	return func(ctx context.Context) ([]byte, error) {
		release, err := s.admit.Acquire(ctx, weight)
		if err != nil {
			return nil, err
		}
		defer release()
		return compute(ctx)
	}
}

// admitRequest performs admission for an uncached compute endpoint,
// writing the shed (503) or context-error (499/504) response itself when
// admission refuses. The release func must be called iff ok.
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.admit == nil {
		return func() {}, true
	}
	release, err := s.admit.Acquire(r.Context(), endpointWeight(endpointName(r.URL.Path)))
	if err != nil {
		s.writeComputeError(w, err)
		return nil, false
	}
	return release, true
}

// errorCode names a status for machine consumption (clients branch on the
// code, not the prose).
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case trace.StatusClientClosedRequest:
		return "client_closed_request"
	case trace.StatusGatewayTimeout:
		return "query_timeout"
	case http.StatusServiceUnavailable:
		return "overloaded"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "error"
	}
}

// writeQueryError maps an execution error from an uncached endpoint to its
// status: deadline exhaustion is 504, a vanished client 499, the rest 400.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, trace.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, trace.StatusClientClosedRequest, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	points := s.f.PointSetNames()
	layers := s.f.RegionSetNames()
	sort.Strings(points)
	sort.Strings(layers)
	writeJSON(w, http.StatusOK, map[string][]string{"points": points, "layers": layers})
}

type queryRequest struct {
	Stmt string `json:"stmt"`
}

// queryResponse is the /api/query payload. Timing travels in the
// X-Urbane-Elapsed-Ms header, not the body, so cached responses stay
// byte-identical to fresh ones.
type queryResponse struct {
	Algorithm string        `json:"algorithm"`
	Reason    string        `json:"reason"`
	Rows      []RegionValue `json:"rows"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodePost(w, r, &req) {
		return
	}
	// Canonicalize the statement before keying and executing: parse, sort
	// the conjunctive filter set, snap the time window, and re-render. Any
	// two statements with the same meaning share one cache entry and one
	// compute.
	q, err := query.Parse(req.Stmt)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	q.Filters = qcache.CanonFilters(q.Filters)
	q.Time = s.snapTime(q.Time)
	stmt := q.String()
	s.serveCached(w, r, queryKey(stmt, q.Points, s.f.Epoch(q.Points)), "application/json", func(ctx context.Context) ([]byte, error) {
		exec, err := s.f.QueryContext(ctx, stmt)
		if err != nil {
			return nil, err
		}
		rs := exec.Plan.Request.Regions
		rows := make([]RegionValue, len(exec.Result.Stats))
		for k, reg := range rs.Regions {
			rows[k] = RegionValue{ID: reg.ID, Name: reg.Name,
				Value: exec.Result.Value(k, exec.Plan.Request.Agg)}
		}
		return marshalBody(queryResponse{
			Algorithm: exec.Result.Algorithm,
			Reason:    exec.Plan.Reason,
			Rows:      rows,
		})
	})
}

// Wire DTOs: aggregates travel as strings, time filters as {start,end}.
type wireFilter struct {
	Attr string  `json:"attr"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

type wireTime struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

func parseAgg(s string) (core.Agg, error) {
	switch strings.ToUpper(s) {
	case "", "COUNT":
		return core.Count, nil
	case "SUM":
		return core.Sum, nil
	case "AVG":
		return core.Avg, nil
	case "MIN":
		return core.Min, nil
	case "MAX":
		return core.Max, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q", s)
	}
}

func toFilters(ws []wireFilter) []core.Filter {
	out := make([]core.Filter, len(ws))
	for i, f := range ws {
		out[i] = core.Filter{Attr: f.Attr, Min: f.Min, Max: f.Max}
	}
	return out
}

type mapViewWire struct {
	Dataset string       `json:"dataset"`
	Layer   string       `json:"layer"`
	Agg     string       `json:"agg"`
	Attr    string       `json:"attr"`
	Filters []wireFilter `json:"filters"`
	Time    *wireTime    `json:"time"`
}

func (s *Server) handleMapView(w http.ResponseWriter, r *http.Request) {
	var wreq mapViewWire
	if !decodePost(w, r, &wreq) {
		return
	}
	agg, err := parseAgg(wreq.Agg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req := MapViewRequest{
		Dataset: wreq.Dataset, Layer: wreq.Layer,
		Agg: agg, Attr: wreq.Attr, Filters: toFilters(wreq.Filters),
	}
	if wreq.Time != nil {
		req.Time = s.snapTime(&core.TimeFilter{Start: wreq.Time.Start, End: wreq.Time.End})
	}
	s.serveCached(w, r, mapViewKey(req, s.f.Epoch(req.Dataset)), "application/json", func(ctx context.Context) ([]byte, error) {
		ch, err := s.f.MapViewContext(ctx, req)
		if err != nil {
			return nil, err
		}
		body := *ch
		body.Elapsed = 0 // timing goes in the header; bodies are deterministic
		return marshalBody(&body)
	})
}

type exploreWire struct {
	Datasets  []string     `json:"datasets"`
	Layer     string       `json:"layer"`
	Agg       string       `json:"agg"`
	Attr      string       `json:"attr"`
	RegionIDs []int        `json:"regionIds"`
	Start     int64        `json:"start"`
	End       int64        `json:"end"`
	Bins      int          `json:"bins"`
	Filters   []wireFilter `json:"filters"`
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var wreq exploreWire
	if !decodePost(w, r, &wreq) {
		return
	}
	agg, err := parseAgg(wreq.Agg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	defer release()
	ex, err := s.f.ExploreContext(r.Context(), ExplorationRequest{
		Datasets: wreq.Datasets, Layer: wreq.Layer,
		Agg: agg, Attr: wreq.Attr,
		RegionIDs: wreq.RegionIDs,
		Start:     wreq.Start, End: wreq.End, Bins: wreq.Bins,
		Filters: toFilters(wreq.Filters),
	})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

type rankWire struct {
	Layer    string `json:"layer"`
	TargetID int    `json:"targetId"`
	Metrics  []struct {
		Name    string       `json:"name"`
		Dataset string       `json:"dataset"`
		Agg     string       `json:"agg"`
		Attr    string       `json:"attr"`
		Filters []wireFilter `json:"filters"`
		Time    *wireTime    `json:"time"`
	} `json:"metrics"`
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var wreq rankWire
	if !decodePost(w, r, &wreq) {
		return
	}
	metrics := make([]MetricSpec, len(wreq.Metrics))
	for i, m := range wreq.Metrics {
		agg, err := parseAgg(m.Agg)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		metrics[i] = MetricSpec{
			Name: m.Name, Dataset: m.Dataset,
			Agg: agg, Attr: m.Attr, Filters: toFilters(m.Filters),
		}
		if m.Time != nil {
			metrics[i].Time = &core.TimeFilter{Start: m.Time.Start, End: m.Time.End}
		}
	}
	release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	defer release()
	scores, err := s.f.RankSimilarContext(r.Context(), wreq.Layer, wreq.TargetID, metrics)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, scores)
}

type deltaWire struct {
	Dataset string       `json:"dataset"`
	Layer   string       `json:"layer"`
	Agg     string       `json:"agg"`
	Attr    string       `json:"attr"`
	Filters []wireFilter `json:"filters"`
	A       wireTime     `json:"a"`
	B       wireTime     `json:"b"`
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	var wreq deltaWire
	if !decodePost(w, r, &wreq) {
		return
	}
	agg, err := parseAgg(wreq.Agg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req := DeltaRequest{
		Dataset: wreq.Dataset, Layer: wreq.Layer,
		Agg: agg, Attr: wreq.Attr, Filters: toFilters(wreq.Filters),
		A: *s.snapTime(&core.TimeFilter{Start: wreq.A.Start, End: wreq.A.End}),
		B: *s.snapTime(&core.TimeFilter{Start: wreq.B.Start, End: wreq.B.End}),
	}
	s.serveCached(w, r, deltaKey(req, s.f.Epoch(req.Dataset)), "application/json", func(ctx context.Context) ([]byte, error) {
		view, err := s.f.DeltaContext(ctx, req)
		if err != nil {
			return nil, err
		}
		body := *view
		body.Elapsed = 0
		return marshalBody(&body)
	})
}

type heatmapWire struct {
	Dataset string       `json:"dataset"`
	W       int          `json:"w"`
	H       int          `json:"h"`
	Weight  string       `json:"weight"`
	Filters []wireFilter `json:"filters"`
	Time    *wireTime    `json:"time"`
}

func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	var wreq heatmapWire
	if !decodePost(w, r, &wreq) {
		return
	}
	req := HeatmapRequest{
		Dataset: wreq.Dataset, W: wreq.W, H: wreq.H,
		Weight: wreq.Weight, Filters: toFilters(wreq.Filters),
	}
	if wreq.Time != nil {
		req.Time = s.snapTime(&core.TimeFilter{Start: wreq.Time.Start, End: wreq.Time.End})
	}
	s.serveCached(w, r, heatmapKey(req, s.f.Epoch(req.Dataset)), "application/json", func(ctx context.Context) ([]byte, error) {
		hm, err := s.f.HeatmapContext(ctx, req)
		if err != nil {
			return nil, err
		}
		body := *hm
		body.Elapsed = 0
		return marshalBody(&body)
	})
}

type flowWire struct {
	Dataset string       `json:"dataset"`
	Layer   string       `json:"layer"`
	Filters []wireFilter `json:"filters"`
	Time    *wireTime    `json:"time"`
	Top     int          `json:"top"`
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	var wreq flowWire
	if !decodePost(w, r, &wreq) {
		return
	}
	req := FlowViewRequest{
		Dataset: wreq.Dataset, Layer: wreq.Layer,
		Filters: toFilters(wreq.Filters), Top: wreq.Top,
	}
	if wreq.Time != nil {
		req.Time = &core.TimeFilter{Start: wreq.Time.Start, End: wreq.Time.End}
	}
	release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	defer release()
	view, err := s.f.FlowViewContext(r.Context(), req)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleRegions serves a layer's polygons as GeoJSON so frontends can draw
// the choropleth geometry: GET /api/regions?layer=neighborhoods.
func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	name := r.URL.Query().Get("layer")
	rs, ok := s.f.RegionSet(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown region set %q", name))
		return
	}
	w.Header().Set("Content-Type", "application/geo+json")
	if err := data.WriteGeoJSON(w, rs); err != nil {
		// Headers already sent; nothing more we can do but log-by-status.
		return
	}
}

// statsResponse is the /api/stats payload: per-endpoint latency histograms
// and outcome counters (ok / error / timeout / canceled), in-flight gauges,
// plus the device's live render-resource gauges — after an aborted query
// both should return to zero.
type statsResponse struct {
	UptimeSec      float64               `json:"uptimeSec"`
	QueryTimeoutMs float64               `json:"queryTimeoutMs"` // 0 = unbounded
	LiveCanvases   int64                 `json:"liveCanvases"`
	LiveTextures   int64                 `json:"liveTextures"`
	Admission      admit.Stats           `json:"admission"`
	Segments       segmentsStats         `json:"segments"`
	SpanCache      lru.Stats             `json:"spanCache"`
	GeoBlocks      geoblocks.Stats       `json:"geoblocks"`
	Incremental    incrementalStats      `json:"incremental"`
	Sharding       shardingStats         `json:"sharding"`
	Gauges         map[string]int64      `json:"gauges"`
	Endpoints      []trace.EndpointStats `json:"endpoints"`
}

// incrementalStats reports the incremental-maintenance machinery: slab-fold
// reuse counters, the slab partial cache, and per-data-set epoch sweeps.
type incrementalStats struct {
	Enabled         bool         `json:"enabled"`
	GranSec         int64        `json:"granSec"`
	MaxSlabs        int          `json:"maxSlabs"`
	SlabsReused     uint64       `json:"slabsReused"`
	SlabsRecomputed uint64       `json:"slabsRecomputed"`
	EpochEvictions  uint64       `json:"epochEvictions"`
	Cache           tcache.Stats `json:"cache"`
}

// segmentsStats reports segment-backed execution: which data sets run on
// attached block sources, the process-wide zone-map pruning counters, and
// the decoded-block cache totals aggregated across every attached store.
type segmentsStats struct {
	Sources       []string  `json:"sources"`
	BlocksScanned int64     `json:"blocksScanned"`
	BlocksPruned  int64     `json:"blocksPruned"`
	Cache         lru.Stats `json:"cache"`
}

// shardingStats reports scatter-gather execution: the shard count, cached
// per-dataset layouts, and each executor slot's liveness and gauges in
// shard order.
type shardingStats struct {
	Enabled  bool              `json:"enabled"`
	Shards   int               `json:"shards"`
	Layouts  int               `json:"layouts"`
	PerShard []shard.NodeStats `json:"perShard"`
}

// handleStats reports the server's request statistics: GET /api/stats.
// Like /api/cachestats it bypasses admission entirely — the overload
// observability endpoint must answer precisely when the server is shedding.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	dev := s.f.rasterJoiner().Device()
	adm := s.admit.Stats()
	seg := segmentsStats{Sources: s.f.PointSourceNames()}
	sort.Strings(seg.Sources)
	seg.BlocksScanned, seg.BlocksPruned = core.ScanStats()
	for _, name := range seg.Sources {
		if src, ok := s.f.PointSource(name); ok {
			if cs, ok := src.(interface{ CacheStats() lru.Stats }); ok {
				seg.Cache.Add(cs.CacheStats())
			}
		}
	}
	inc := incrementalStats{EpochEvictions: s.epochEvictions.Load()}
	if j := s.f.Incremental(); j != nil {
		inc.Enabled = true
		inc.GranSec = j.Gran()
		inc.MaxSlabs = j.MaxSlabs()
		inc.SlabsReused = j.SlabsReused()
		inc.SlabsRecomputed = j.SlabsRecomputed()
		inc.Cache = j.Cache().Stats()
	}
	var gb geoblocks.Stats
	if g := s.f.GeoBlocks(); g != nil {
		gb = g.Store().Stats()
	}
	var sh shardingStats
	if c := s.f.Sharding(); c != nil {
		sh = shardingStats{
			Enabled: true, Shards: c.NumShards(), Layouts: c.Layouts(),
			PerShard: c.Stats(),
		}
		for _, ns := range sh.PerShard {
			pfx := "shard." + strconv.Itoa(ns.Shard)
			s.metrics.SetGauge(pfx+".inflight", ns.Inflight)
			s.metrics.SetGauge(pfx+".scanned", ns.BlocksScanned)
			s.metrics.SetGauge(pfx+".merged", ns.Merged)
		}
	}
	// Mirror the admission snapshot into the trace registry's gauge map so
	// any consumer of the registry sees shed/queued/inflight without knowing
	// about the admit package.
	s.metrics.SetGauge("admit.inflight", adm.InFlight)
	s.metrics.SetGauge("admit.queued", adm.Queued)
	s.metrics.SetGauge("admit.shed", int64(adm.Shed))
	s.metrics.SetGauge("incremental.slabs_reused", int64(inc.SlabsReused))
	s.metrics.SetGauge("incremental.slabs_recomputed", int64(inc.SlabsRecomputed))
	s.metrics.SetGauge("incremental.epoch_evictions", int64(inc.EpochEvictions))
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSec:      s.metrics.Uptime().Seconds(),
		QueryTimeoutMs: float64(s.timeout) / float64(time.Millisecond),
		LiveCanvases:   dev.LiveCanvases(),
		LiveTextures:   dev.LiveTextures(),
		Admission:      adm,
		Segments:       seg,
		SpanCache:      dev.SpanCache().Stats(),
		GeoBlocks:      gb,
		Incremental:    inc,
		Sharding:       sh,
		Gauges:         s.metrics.Gauges(),
		Endpoints:      s.metrics.Snapshot(),
	})
}

// decodePost decodes a JSON POST body into dst, writing the error response
// itself when the request is malformed. `server.decode` is a fault
// injection site: the chaos suite uses it to prove malformed-input and
// mid-decode failures keep producing well-formed error envelopes.
func decodePost(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	if err := fault.Inject(r.Context(), "server.decode"); err != nil {
		writeQueryError(w, err)
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}
