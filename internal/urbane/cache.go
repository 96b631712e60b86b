package urbane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/qcache"
	"repro/internal/shard"
	"repro/internal/trace"
)

// DefaultCacheBytes is the query-result cache capacity a server gets when
// no option overrides it.
const DefaultCacheBytes = 64 << 20

// Response headers the cached endpoints emit. Timing travels in a header
// instead of the JSON body so cached bodies are deterministic: the same
// canonical query always serves byte-identical bytes, hit or miss,
// cache on or off.
const (
	cacheOutcomeHeader = "X-Urbane-Cache"
	elapsedHeader      = "X-Urbane-Elapsed-Ms"
	traceHeader        = "X-Urbane-Trace"
)

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithCache sets the query-result cache capacity in bytes; 0 or negative
// disables caching.
func WithCache(capacityBytes int64) ServerOption {
	return func(s *Server) {
		if capacityBytes <= 0 {
			s.cache = nil
			return
		}
		s.cache = qcache.New(capacityBytes)
	}
}

// WithQueryTimeout bounds every /api request to d: the handler's context
// carries the deadline, the join kernels observe it between point batches,
// and an exhausted deadline surfaces as 504 Gateway Timeout. d <= 0 (the
// default) disables the bound.
func WithQueryTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.timeout = d
		}
	}
}

// WithAdmission bounds the server's concurrent query computes with the
// given admission controller: computes past -max-inflight wait in a short
// deadline-aware queue and are shed with 503 + Retry-After when the queue
// is full or too slow. Cache hits, 304 revalidations, coalesced waiters,
// and the cheap observability endpoints (/api/stats, /api/cachestats,
// /api/datasets, /api/regions) bypass admission. nil disables (the
// default).
func WithAdmission(c *admit.Controller) ServerOption {
	return func(s *Server) { s.admit = c }
}

// WithFaults arms deterministic fault injection: the registry rides every
// request context, and the hook sites threaded through the stack
// (server.decode, qcache.compute, core.join, core.pointpass) consult it.
// nil (the default) disarms injection; hooks then cost one atomic load.
func WithFaults(r *fault.Registry) ServerOption {
	return func(s *Server) { s.faults = r }
}

// WithTimeSnap makes the server quantize every time filter outward to
// multiples of gran (the workload's bucket granularity, e.g. 3600 for
// hourly data) before both keying and executing it, so ragged slider
// windows share cache entries. gran <= 1 means no snapping.
func WithTimeSnap(gran int64) ServerOption {
	return func(s *Server) {
		if gran < 1 {
			gran = 1
		}
		s.snap = gran
	}
}

// CacheStats snapshots the cache counters (zero-valued when disabled).
func (s *Server) CacheStats() qcache.Stats { return s.cache.Stats() }

// AdmissionStats snapshots the admission controller (zero-valued when
// admission is disabled).
func (s *Server) AdmissionStats() admit.Stats { return s.admit.Stats() }

// statusError carries a non-default HTTP status through a cached compute
// function; plain errors map to 400 Bad Request.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// internalErr marks a compute failure as a 500 rather than a 400.
func internalErr(err error) error {
	return &statusError{status: http.StatusInternalServerError, err: err}
}

// syncGeneration slaves the cache generation to the framework's catalog
// version, so an engine toggle (geoblocks, incremental) invalidates the
// whole cache. Registrations and per-data-set writes don't move the
// version — writes advance the data set's epoch, which is part of every
// cache key, and an eager sweep reclaims the stale entries.
func (s *Server) syncGeneration() {
	if s.cache != nil {
		s.cache.AdvanceGeneration(s.f.Version())
	}
}

// snapTime applies the server's time-snap granularity.
func (s *Server) snapTime(t *core.TimeFilter) *core.TimeFilter {
	return qcache.SnapTime(t, s.snap)
}

// marshalBody renders a deterministic JSON response body (same trailing
// newline as writeJSON's encoder, so cached and uncached bodies match).
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, internalErr(err)
	}
	return append(b, '\n'), nil
}

// serveCached is the one execution path of every compute endpoint: look up
// the canonical key, coalesce concurrent identical computes, admit the one
// that runs, and serve the stored bytes. The compute runs under the request
// context (coalesced waiters that give up detach without killing the shared
// compute; see qcache.DoContext). Compute errors are never cached; they
// surface through writeComputeError.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key, contentType string, compute func(ctx context.Context) ([]byte, error)) {
	s.serve(w, r, key, contentType, compute, nil)
}

// serve is serveCached for an entry that is not itself the response body:
// render, when non-nil, turns the stored value into this request's body, on
// a hit as on a miss (see serveSelection).
func (s *Server) serve(w http.ResponseWriter, r *http.Request, key, contentType string,
	compute func(ctx context.Context) ([]byte, error), render func(val []byte, outcome qcache.Outcome) ([]byte, error)) {
	start := time.Now()
	s.syncGeneration()
	compute = s.admitted(endpointWeight(endpointName(r.URL.Path)), compute)
	body, outcome, err := s.cache.DoContext(r.Context(), key, compute)
	if err == nil && render != nil {
		body, err = render(body, outcome)
	}
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set(cacheOutcomeHeader, string(outcome))
	h.Set(elapsedHeader, strconv.FormatFloat(float64(time.Since(start))/float64(time.Millisecond), 'f', 3, 64))
	_, _ = w.Write(body)
}

// writeComputeError is the one mapping from a compute failure to an HTTP
// status: an explicit statusError wins, then an admission shed is 503
// Service Unavailable with Retry-After, deadline exhaustion is 504 Gateway
// Timeout, a vanished client is 499, and anything else — unknown names,
// attributes the data set lacks, injected faults — is a 400.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var se *statusError
	if errors.As(err, &se) {
		status, err = se.status, se.err
	}
	switch {
	case errors.Is(err, admit.ErrOverloaded):
		s.writeShed(w, err)
		return
	case errors.Is(err, shard.ErrUnavailable):
		// A killed shard is transient by design (chaos or operator restart):
		// same standard envelope + Retry-After contract as an admission
		// shed, never a silently partial answer.
		s.writeShed(w, err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		status = trace.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = trace.StatusClientClosedRequest
	}
	writeError(w, status, err)
}

// serveCachedImage wraps serveCached for the GET image endpoints with
// HTTP revalidation: a strong ETag derived from the cache key and the
// current generation, honored via If-None-Match with 304. Within one
// generation the catalog is immutable and rendering is deterministic, so
// key+generation fully determines the bytes — the validator is strong.
func (s *Server) serveCachedImage(w http.ResponseWriter, r *http.Request, key, contentType string, compute func(ctx context.Context) ([]byte, error)) {
	s.syncGeneration()
	etag := s.etagFor(key)
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "private, no-cache")
	if matchesETag(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.serveCached(w, r, key, contentType, compute)
}

// etagFor derives the strong validator for a cache key at the current
// generation.
func (s *Server) etagFor(key string) string {
	gen := s.f.Version()
	if s.cache != nil {
		gen = s.cache.Generation()
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return fmt.Sprintf("\"%016x-%x\"", h.Sum64(), gen)
}

// matchesETag implements the If-None-Match comparison: a comma-separated
// list of validators or "*". Weak prefixes compare equal to their strong
// form (weak comparison is what If-None-Match specifies).
func matchesETag(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// selectionSig appends the one key fragment every view shares — the
// selection, already canonical (filters sorted, window snapped by
// parseSelection) — to sig; each endpoint adds only its own extra fields.
// The data set travels as an Epoch pair (name + per-data-set write epoch),
// so an append or cube build against one data set changes only that set's
// keys — every other set's entries stay warm, handleAppend's sweep reclaims
// the stale ones, and the image endpoints' ETags (which hash the key) roll
// over automatically. A view reading several data sets appends one Epoch
// pair per set.
func (s *Server) selectionSig(sig *qcache.Sig, sel Selection) *qcache.Sig {
	return sig.Epoch(sel.Dataset, s.f.Epoch(sel.Dataset)).Str("layer", sel.Layer).
		Str("agg", sel.Agg.String()).Str("attr", sel.Attr).
		Filters("f", sel.Filters).TimeRange("t", sel.Time)
}

// selectionKey keys sel's selection entry (qcache.SelectionKind): the
// selection's signature with AVG folded onto SUM, shared by /api/mapview,
// /api/query and the choropleth PNG. Like every key it is built in the
// handler, before anything resolves the point set, so a result is never
// stored under an epoch newer than the data it was computed from.
func (s *Server) selectionKey(sel Selection) string {
	sel.Agg = qcache.ResultAgg(sel.Agg)
	return s.selectionSig(qcache.NewSig(qcache.SelectionKind), sel).Key()
}

// selectionRun is one view's way of computing a selection's join: the
// result and the routing reason.
type selectionRun func(ctx context.Context) (*core.Result, string, error)

// selectionCompute wraps run as the compute of a selection entry for the
// named view (see qcache.Result.View).
func selectionCompute(agg core.Agg, view string, run selectionRun) func(ctx context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		res, reason, err := run(ctx)
		if err != nil {
			return nil, err
		}
		return qcache.EncodeResult(qcache.Result{Agg: qcache.ResultAgg(agg), Stats: res.Stats,
			Algorithm: res.Algorithm, Reason: reason, View: view}), nil
	}
}

// readSelection decodes a selection entry the cache served with outcome.
// An entry another view computed (a hit or a coalesced wait, not this
// request's own compute) counts as cross-view on the request trace and in
// /api/cachestats.
func (s *Server) readSelection(ctx context.Context, val []byte, outcome qcache.Outcome, view string) (qcache.Result, error) {
	res, err := qcache.DecodeResult(val)
	if err != nil {
		return res, internalErr(err)
	}
	if (outcome == qcache.Hit || outcome == qcache.Coalesced) && res.View != view {
		s.crossView.Add(1)
		trace.FromContext(ctx).Count("qcache.cross_view", 1)
	}
	return res, nil
}

// serveSelection serves one JSON view of a selection. The cache holds the
// selection entry, not the body: the entry is looked up, coalesced and
// admitted like any cached body, and render builds this request's body
// from it on every request. view names the rendering (endpoint and
// aggregate); run is the view's compute on a miss.
func (s *Server) serveSelection(w http.ResponseWriter, r *http.Request, sel Selection, view string,
	run selectionRun, render func(qcache.Result) ([]byte, error)) {
	s.serve(w, r, s.selectionKey(sel), "application/json", selectionCompute(sel.Agg, view, run),
		func(val []byte, outcome qcache.Outcome) ([]byte, error) {
			res, err := s.readSelection(r.Context(), val, outcome, view)
			if err != nil {
				return nil, err
			}
			return render(res)
		})
}

// choropleth renders a selection entry as the map view payload, whose
// values are also /api/query's rows and the PNG's colors.
func (s *Server) choropleth(sel Selection, res qcache.Result) (*Choropleth, error) {
	rs, err := s.f.layer(sel.Layer)
	if err != nil {
		return nil, internalErr(err)
	}
	return newChoropleth(sel, rs, res.Stats, res.Algorithm), nil
}

// cacheStatsResponse is the /api/cachestats payload. CrossView counts the
// requests a selection entry served that another view computed.
type cacheStatsResponse struct {
	Enabled   bool   `json:"enabled"`
	TimeSnap  int64  `json:"timeSnap"`
	CrossView uint64 `json:"crossView"`
	qcache.Stats
}

// handleCacheStats reports hit/miss/evict/coalesce counters, occupancy,
// and the current generation: GET /api/cachestats.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	s.syncGeneration()
	writeJSON(w, http.StatusOK, cacheStatsResponse{
		Enabled:   s.cache != nil,
		TimeSnap:  s.snap,
		CrossView: s.crossView.Load(),
		Stats:     s.cache.Stats(),
	})
}
