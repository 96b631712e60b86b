package urbane

import (
	"cmp"
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
	"repro/internal/tcache"
	"repro/internal/trace"
)

// Server exposes the framework over the JSON API the demo frontend speaks.
// Every endpoint that runs a join — see computeRoutes — takes one path: the
// request's selection is parsed and keyed, and serveCached runs it through
// the sharded query-result cache (request coalescing, admission control,
// one error-to-status mapping); see cache.go and internal/qcache.
type Server struct {
	f       *Framework
	mux     *http.ServeMux
	cache   *qcache.Cache     // nil = caching disabled
	snap    int64             // time-filter snap granularity, >= 1
	timeout time.Duration     // per-request query deadline; 0 = unbounded
	metrics *trace.Registry   // per-endpoint latency histograms
	admit   *admit.Controller // nil = admission control disabled
	faults  *fault.Registry   // nil = fault injection disarmed

	// epochEvictions counts cache entries reclaimed by per-data-set epoch
	// sweeps (appends).
	epochEvictions atomic.Uint64
	// crossView counts requests served by a selection entry another view
	// computed (see readSelection).
	crossView atomic.Uint64
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
	for pattern, h := range s.computeRoutes() {
		s.mux.HandleFunc(pattern, h)
	}
	// The catalog, observability and ingest endpoints are cheap: uncached
	// and outside admission control.
	s.mux.HandleFunc("/api/datasets", s.handleDatasets)
	s.mux.HandleFunc("/api/cachestats", s.handleCacheStats)
	s.mux.HandleFunc("/api/stats", s.handleStats)
	s.mux.HandleFunc("/api/append", s.handleAppend)
	s.mux.HandleFunc("/api/regions", s.handleRegions)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// computeRoutes are the endpoints that run a join. Each reaches it only
// through serveCached, so all of them are cached, coalesced, admitted and
// map errors to statuses the same way.
func (s *Server) computeRoutes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/api/query":                 s.handleQuery,
		"/api/mapview":               s.handleMapView,
		"/api/explore":               s.handleExplore,
		"/api/rank":                  s.handleRank,
		"/api/heatmap":               s.handleHeatmap,
		"/api/flows":                 s.handleFlows,
		"/api/delta":                 s.handleDelta,
		"/api/polygon":               s.handlePolygon,
		"/api/render/choropleth.png": s.handleChoroplethPNG,
		"/api/tile/":                 s.handleTile,
	}
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
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
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

// queryResponse is the /api/query payload.
type queryResponse struct {
	Algorithm string        `json:"algorithm"`
	Reason    string        `json:"reason"`
	Rows      []RegionValue `json:"rows"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodePost(w, r, &req) {
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
	// The statement is a selection: it shares the selection entry with the
	// map view and the choropleth PNG of the same canonical selection.
	sel := Selection{Dataset: q.Points, Layer: q.Regions, Agg: q.Agg, Attr: q.Attr,
		Filters: q.Filters, Time: q.Time}
	s.serveSelection(w, r, sel, "query/"+q.Agg.String(),
		func(ctx context.Context) (*core.Result, string, error) {
			exec, err := s.f.QueryContext(ctx, stmt)
			if err != nil {
				return nil, "", err
			}
			return exec.Result, exec.Plan.Reason, nil
		},
		func(res qcache.Result) ([]byte, error) {
			ch, err := s.choropleth(sel, res)
			if err != nil {
				return nil, err
			}
			return marshalBody(queryResponse{
				Algorithm: res.Algorithm,
				Reason:    res.Reason,
				Rows:      ch.Values,
			})
		})
}

// Request bounds: what one request may ask of the server. They are
// constants, not flags — past any of them the request is a 400 (413 for the
// body), not a denial of service on the decoder or the join kernels.
const (
	maxBodyBytes       = 8 << 20
	maxPolygonVertices = 10_000
	maxRegionIDs       = 10_000
	maxDatasets        = 16
	maxMetrics         = 32
	maxBins            = 1024
)

// atMost is the request-bound check: a 400 error when n exceeds limit.
func atMost(what string, n, limit int) error {
	if n > limit {
		return fmt.Errorf("request has %d %s, limit is %d", n, what, limit)
	}
	return nil
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

// selectionWire is the wire form of a Selection, embedded by every view's
// request body. A view that replaces one of its fields (explore's datasets,
// delta's a/b windows) ignores that field.
type selectionWire struct {
	Dataset string       `json:"dataset"`
	Layer   string       `json:"layer"`
	Agg     string       `json:"agg"`
	Attr    string       `json:"attr"`
	Filters []wireFilter `json:"filters"`
	Time    *wireTime    `json:"time"`
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

// parseSelection is the one step from wire to executable selection: the
// aggregate is parsed, the conjunctive filter set put in canonical order and
// the time window snapped (WithTimeSnap), so what is keyed is exactly what
// is executed on every endpoint.
func (s *Server) parseSelection(ws selectionWire) (Selection, error) {
	agg, err := parseAgg(ws.Agg)
	if err != nil {
		return Selection{}, err
	}
	filters := make([]core.Filter, len(ws.Filters))
	for i, f := range ws.Filters {
		filters[i] = core.Filter{Attr: f.Attr, Min: f.Min, Max: f.Max}
	}
	sel := Selection{
		Dataset: ws.Dataset, Layer: ws.Layer, Agg: agg, Attr: ws.Attr,
		Filters: qcache.CanonFilters(filters),
	}
	if ws.Time != nil {
		sel.Time = s.snapWindow(*ws.Time)
	}
	return sel, nil
}

// snapWindow converts a wire window and applies the server's time-snap
// granularity.
func (s *Server) snapWindow(t wireTime) *core.TimeFilter {
	return s.snapTime(&core.TimeFilter{Start: t.Start, End: t.End})
}

// decodeView decodes a view's POST body into dst and parses the selection
// embedded in it (ws points into dst), answering 4xx itself on failure.
func (s *Server) decodeView(w http.ResponseWriter, r *http.Request, dst any, ws *selectionWire) (Selection, bool) {
	if !s.decodePost(w, r, dst) {
		return Selection{}, false
	}
	sel, err := s.parseSelection(*ws)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return Selection{}, false
	}
	return sel, true
}

// viewBody renders a freshly computed view as a response body. This is the
// one place a body's elapsedNs is zeroed: timing travels in the
// X-Urbane-Elapsed-Ms header so the same canonical request always serves
// the same bytes, hit or miss, cache on or off.
func viewBody(v interface{ timing() *Timing }, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	v.timing().Elapsed = 0
	return marshalBody(v)
}

func (s *Server) handleMapView(w http.ResponseWriter, r *http.Request) {
	var wreq selectionWire
	sel, ok := s.decodeView(w, r, &wreq, &wreq)
	if !ok {
		return
	}
	s.serveSelection(w, r, sel, "mapview/"+sel.Agg.String(),
		func(ctx context.Context) (*core.Result, string, error) {
			return s.f.selectionResult(ctx, sel)
		},
		func(res qcache.Result) ([]byte, error) {
			ch, err := s.choropleth(sel, res)
			if err != nil {
				return nil, err
			}
			return marshalBody(ch)
		})
}

type exploreWire struct {
	selectionWire
	Datasets  []string `json:"datasets"`
	RegionIDs []int    `json:"regionIds"`
	Start     int64    `json:"start"`
	End       int64    `json:"end"`
	Bins      int      `json:"bins"`
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var wreq exploreWire
	sel, ok := s.decodeView(w, r, &wreq, &wreq.selectionWire)
	if !ok {
		return
	}
	if err := cmp.Or(
		atMost("datasets", len(wreq.Datasets), maxDatasets),
		atMost("regionIds", len(wreq.RegionIDs), maxRegionIDs),
		atMost("bins", wreq.Bins, maxBins),
	); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req := ExplorationRequest{
		Selection: sel, Datasets: wreq.Datasets, RegionIDs: wreq.RegionIDs,
		Start: wreq.Start, End: wreq.End, Bins: wreq.Bins,
	}
	// The key carries the epoch of each data set the series read, so an
	// append to any of them reclaims the entry.
	sig := s.selectionSig(s.sig("explore"), sel).Int("ds.n", int64(len(req.Datasets)))
	for _, name := range req.Datasets {
		sig.Epoch(name, s.f.Epoch(name))
	}
	sig.Ints("regions", req.RegionIDs).
		Int("start", req.Start).Int("end", req.End).Int("bins", int64(req.Bins))
	s.serveCached(w, r, sig.Key(), "application/json", func(ctx context.Context) ([]byte, error) {
		return viewBody(s.f.ExploreContext(ctx, req))
	})
}

type rankWire struct {
	Layer    string `json:"layer"`
	TargetID int    `json:"targetId"`
	Metrics  []struct {
		Name string `json:"name"`
		selectionWire
	} `json:"metrics"`
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var wreq rankWire
	if !s.decodePost(w, r, &wreq) {
		return
	}
	if err := atMost("metrics", len(wreq.Metrics), maxMetrics); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	metrics := make([]MetricSpec, len(wreq.Metrics))
	sig := s.sig("rank").Str("layer", wreq.Layer).
		Int("target", int64(wreq.TargetID)).Int("m.n", int64(len(metrics)))
	for i, m := range wreq.Metrics {
		sel, err := s.parseSelection(m.selectionWire)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		metrics[i] = MetricSpec{Name: m.Name, Selection: sel}
		s.selectionSig(sig.Str("name", m.Name), sel)
	}
	s.serveCached(w, r, sig.Key(), "application/json", func(ctx context.Context) ([]byte, error) {
		scores, err := s.f.RankSimilarContext(ctx, wreq.Layer, wreq.TargetID, metrics)
		if err != nil {
			return nil, err
		}
		return marshalBody(scores)
	})
}

type deltaWire struct {
	selectionWire
	A wireTime `json:"a"`
	B wireTime `json:"b"`
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	var wreq deltaWire
	sel, ok := s.decodeView(w, r, &wreq, &wreq.selectionWire)
	if !ok {
		return
	}
	req := DeltaRequest{Selection: sel, A: *s.snapWindow(wreq.A), B: *s.snapWindow(wreq.B)}
	key := s.selectionSig(s.sig("delta"), sel).
		TimeRange("a", &req.A).TimeRange("b", &req.B).Key()
	s.serveCached(w, r, key, "application/json", func(ctx context.Context) ([]byte, error) {
		return viewBody(s.f.DeltaContext(ctx, req))
	})
}

type heatmapWire struct {
	selectionWire
	W      int    `json:"w"`
	H      int    `json:"h"`
	Weight string `json:"weight"`
}

func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	var wreq heatmapWire
	sel, ok := s.decodeView(w, r, &wreq, &wreq.selectionWire)
	if !ok {
		return
	}
	req := HeatmapRequest{
		Dataset: sel.Dataset, W: wreq.W, H: wreq.H,
		Weight: wreq.Weight, Filters: sel.Filters, Time: sel.Time,
	}
	key := s.selectionSig(s.sig("heatmap"), sel).
		Int("w", int64(req.W)).Int("h", int64(req.H)).Str("weight", req.Weight).Key()
	s.serveCached(w, r, key, "application/json", func(ctx context.Context) ([]byte, error) {
		return viewBody(s.f.HeatmapContext(ctx, req))
	})
}

type flowWire struct {
	selectionWire
	Top int `json:"top"`
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	var wreq flowWire
	sel, ok := s.decodeView(w, r, &wreq, &wreq.selectionWire)
	if !ok {
		return
	}
	req := FlowViewRequest{Selection: sel, Top: wreq.Top}
	key := s.selectionSig(s.sig("flows"), sel).Int("top", int64(req.Top)).Key()
	s.serveCached(w, r, key, "application/json", func(ctx context.Context) ([]byte, error) {
		return viewBody(s.f.FlowViewContext(ctx, req))
	})
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
// the column cache totals aggregated across every attached store (one
// entry per block and column).
type segmentsStats struct {
	Sources       []string  `json:"sources"`
	BlocksScanned int64     `json:"blocksScanned"`
	BlocksPruned  int64     `json:"blocksPruned"`
	Cache         lru.Stats `json:"cache"`
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
		gb = g.Stats()
	}
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
		Endpoints:      s.metrics.Snapshot(),
	})
}

// decodePost decodes a JSON POST body of at most maxBodyBytes into dst,
// writing the error response itself when the request is malformed (400) or
// oversized (413). `server.decode` is a fault injection site: the chaos
// suite uses it to prove malformed-input and mid-decode failures keep
// producing well-formed error envelopes.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	if err := fault.Inject(r.Context(), "server.decode"); err != nil {
		s.writeComputeError(w, err)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}
