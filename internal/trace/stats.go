package trace

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry aggregates per-endpoint request statistics for the /api/stats
// endpoint: latency histograms, outcome counters (ok / error / timeout /
// canceled), and in-flight gauges. One Registry lives per server; safe for
// concurrent use.
type Registry struct {
	start time.Time

	mu        sync.Mutex
	endpoints map[string]*Endpoint
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:     time.Now(),
		endpoints: make(map[string]*Endpoint),
	}
}

// Endpoint returns (creating on first use) the named endpoint's recorder.
func (r *Registry) Endpoint(name string) *Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	ep, ok := r.endpoints[name]
	if !ok {
		ep = &Endpoint{name: name}
		r.endpoints[name] = ep
	}
	return ep
}

// Uptime returns how long the registry has been collecting.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// Snapshot returns every endpoint's stats, sorted by name.
func (r *Registry) Snapshot() []EndpointStats {
	r.mu.Lock()
	eps := make([]*Endpoint, 0, len(r.endpoints))
	for _, ep := range r.endpoints {
		eps = append(eps, ep)
	}
	r.mu.Unlock()
	sort.Slice(eps, func(i, j int) bool { return eps[i].name < eps[j].name })
	out := make([]EndpointStats, len(eps))
	for i, ep := range eps {
		out[i] = ep.Stats()
	}
	return out
}

// Endpoint records one route's requests.
type Endpoint struct {
	name     string
	inflight atomic.Int64

	mu   sync.Mutex
	ok   uint64
	errs uint64 // non-2xx other than timeout/cancel/shed
	tout uint64 // deadline exceeded (504)
	canc uint64 // client gone (499)
	shed uint64 // admission shed the request (503)
	hist histogram
}

// Begin marks a request in flight; the returned func records its outcome.
// status is the HTTP status finally written (0 counts as 200).
func (ep *Endpoint) Begin() (end func(status int, elapsed time.Duration)) {
	ep.inflight.Add(1)
	return func(status int, elapsed time.Duration) {
		ep.inflight.Add(-1)
		ep.mu.Lock()
		switch {
		case status == StatusGatewayTimeout:
			ep.tout++
		case status == StatusClientClosedRequest:
			ep.canc++
		case status == StatusServiceUnavailable:
			ep.shed++
		case status == 0 || status < 400:
			ep.ok++
		default:
			ep.errs++
		}
		ep.hist.observe(ms(elapsed))
		ep.mu.Unlock()
	}
}

// HTTP statuses the registry classifies specially. 499 is the de-facto
// "client closed request" status (nginx); Go's stdlib has no constant.
const (
	StatusGatewayTimeout      = 504
	StatusClientClosedRequest = 499
	StatusServiceUnavailable  = 503
)

// EndpointStats is one endpoint's aggregate view, JSON-shaped for the
// /api/stats response.
type EndpointStats struct {
	Name     string         `json:"name"`
	InFlight int64          `json:"inFlight"`
	Count    uint64         `json:"count"`
	OK       uint64         `json:"ok"`
	Errors   uint64         `json:"errors"`
	Timeouts uint64         `json:"timeouts"`
	Canceled uint64         `json:"canceled"`
	Shed     uint64         `json:"shed"`
	Latency  LatencySummary `json:"latencyMs"`
}

// LatencySummary reports the histogram in milliseconds. Quantiles are
// bucket-interpolated (log-scale buckets, so coarse but monotone).
type LatencySummary struct {
	Min     float64  `json:"min"`
	Mean    float64  `json:"mean"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []uint64 `json:"buckets"`
	// Bounds[i] is the inclusive upper bound (ms) of Buckets[i]; the last
	// bucket is unbounded and reported as +Inf's stand-in, -1.
	Bounds []float64 `json:"bucketUpperMs"`
}

// Stats snapshots the endpoint's counters.
func (ep *Endpoint) Stats() EndpointStats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	s := EndpointStats{
		Name:     ep.name,
		InFlight: ep.inflight.Load(),
		OK:       ep.ok,
		Errors:   ep.errs,
		Timeouts: ep.tout,
		Canceled: ep.canc,
		Shed:     ep.shed,
		Latency:  ep.hist.summary(),
	}
	s.Count = s.OK + s.Errors + s.Timeouts + s.Canceled + s.Shed
	return s
}

// histogram is a log2-bucketed latency histogram: bucket i counts samples
// with latency <= 0.25ms * 2^i, the last bucket is unbounded. 17 buckets
// span 0.25ms .. ~16s, which covers interactive queries through
// pathological raster joins.
const (
	histBuckets = 17
	histFirstMs = 0.25
)

type histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// bucketBound returns bucket i's inclusive upper bound in ms (-1 for the
// unbounded last bucket).
func bucketBound(i int) float64 {
	if i == histBuckets-1 {
		return -1
	}
	return histFirstMs * math.Pow(2, float64(i))
}

func (h *histogram) observe(v float64) {
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	bound := histFirstMs
	for i := 0; i < histBuckets-1; i++ {
		if v <= bound {
			h.counts[i]++
			return
		}
		bound *= 2
	}
	h.counts[histBuckets-1]++
}

// quantile interpolates the q-quantile from the buckets (upper-bound
// attribution: the true quantile is at most the returned value, except in
// the unbounded bucket where the observed max is used).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		//lint:ignore floataccum 17 integer bucket counts, exactly representable; no rounding to compensate
		cum += float64(h.counts[i])
		if cum >= rank {
			if b := bucketBound(i); b >= 0 {
				return math.Min(b, h.max)
			}
			return h.max
		}
	}
	return h.max
}

func (h *histogram) summary() LatencySummary {
	s := LatencySummary{
		Min:     h.min,
		Max:     h.max,
		P50:     h.quantile(0.50),
		P90:     h.quantile(0.90),
		P99:     h.quantile(0.99),
		Buckets: append([]uint64(nil), h.counts[:]...),
		Bounds:  make([]float64, histBuckets),
	}
	if h.n > 0 {
		s.Mean = h.sum / float64(h.n)
	}
	for i := range s.Bounds {
		s.Bounds[i] = bucketBound(i)
	}
	return s
}
