// Package trace is the request-scoped observability layer of the query
// path: a lightweight span recorder that rides the context.Context every
// handler derives, plus (stats.go) the process-wide registry of
// per-endpoint latency histograms the /api/stats endpoint reports.
//
// A Trace is created per request, attached with NewContext, and recovered
// anywhere downstream with FromContext. Stages open spans and deep layers
// add trace-level counters —
//
//	sp := trace.FromContext(ctx).Start("execute")
//	defer sp.End()
//	trace.FromContext(ctx).Count("batches", 1)
//
// — and the server renders the finished trace into the X-Urbane-Trace
// response header. Every entry point is nil-safe: code instrumented with
// spans runs unchanged (and essentially for free) when no trace is
// attached, so the core join kernels do not need to know whether they are
// serving an HTTP request or a benchmark.
package trace

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace collects the spans of one request. Safe for concurrent use: worker
// goroutines of a parallel join may add counters to a span while the
// recording request is elsewhere. The zero value is not useful; call New.
type Trace struct {
	name  string
	start time.Time

	mu       sync.Mutex
	spans    []*Span
	keys     []string
	counters map[string]int64
}

// New starts a trace for one request of the named endpoint.
func New(name string) *Trace {
	return &Trace{name: name, start: time.Now()}
}

// Count accumulates a trace-level counter (batch counts, tile counts).
// Deep layers that have no span handle — the join kernels — use this; the
// counters render after the spans in the header. Nil-safe and safe from
// multiple goroutines of a parallel stage.
func (t *Trace) Count(key string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64)
	}
	if _, ok := t.counters[key]; !ok {
		t.keys = append(t.keys, key)
	}
	t.counters[key] += n
	t.mu.Unlock()
}

// Counters snapshots the trace-level counters.
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// Name returns the endpoint name the trace was created for.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Span is one timed stage of a request (parse, plan, execute, encode...).
// Counters attached with Count travel with the stage in the header.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	duration time.Duration
	ended    bool
	counters map[string]int64
}

// Start opens a span. Nil-safe: a nil trace returns a nil span whose
// methods are all no-ops, so instrumented code never branches.
func (t *Trace) Start(name string) *Span {
	return t.open(&Span{name: name, start: time.Now()})
}

// Stage opens a span that sums the wall time of work done in pieces: it
// starts at zero and each Add adds one piece, so a stage that runs once per
// canvas tile or per time bin renders as one span. Nil-safe like Start.
func (t *Trace) Stage(name string) *Span {
	return t.open(&Span{name: name, ended: true})
}

// open records sp in the trace; a nil trace records nothing and returns nil.
func (t *Trace) open(sp *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Add adds d to the span's wall time.
func (sp *Span) Add(d time.Duration) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.duration += d
	sp.mu.Unlock()
}

// Count accumulates a named counter on the span. Safe to call from
// multiple goroutines of a parallel stage.
func (sp *Span) Count(key string, n int64) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.counters == nil {
		sp.counters = make(map[string]int64)
	}
	sp.counters[key] += n
	sp.mu.Unlock()
}

// End closes the span, freezing its wall time. Ending twice keeps the
// first duration.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.ended {
		sp.ended = true
		sp.duration = time.Since(sp.start)
	}
	sp.mu.Unlock()
}

// SpanSummary is one rendered span (for tests and the stats endpoint).
type SpanSummary struct {
	Name     string
	Duration time.Duration
	Counters map[string]int64
}

// Spans snapshots the recorded spans in start order.
func (t *Trace) Spans() []SpanSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	out := make([]SpanSummary, len(spans))
	for i, sp := range spans {
		sp.mu.Lock()
		s := SpanSummary{Name: sp.name, Duration: sp.duration}
		if !sp.ended {
			s.Duration = time.Since(sp.start)
		}
		if len(sp.counters) > 0 {
			s.Counters = make(map[string]int64, len(sp.counters))
			for k, v := range sp.counters {
				s.Counters[k] = v
			}
		}
		sp.mu.Unlock()
		out[i] = s
	}
	return out
}

// Header renders the trace as the X-Urbane-Trace value: semicolon-separated
// stages with millisecond wall times and their counters, then the
// trace-level counters, ending with the total elapsed time —
//
//	parse=0.05;plan=0.02;execute=41.80;core.refine=9.12(boundary_obs=812);batches=12;tiles=1;total=42.95
//
// Durations are milliseconds with two decimals; counters are sorted by
// name for deterministic output.
func (t *Trace) Header() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range t.Spans() {
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%.2f", s.Name, ms(s.Duration))
		if len(s.Counters) > 0 {
			b.WriteByte('(')
			for i, k := range sortedKeys(s.Counters) {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s=%d", k, s.Counters[k])
			}
			b.WriteByte(')')
		}
	}
	counters := t.Counters()
	for _, k := range sortedKeys(counters) {
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%d", k, counters[k])
	}
	if b.Len() > 0 {
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "total=%.2f", ms(time.Since(t.start)))
	return b.String()
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Elapsed returns the wall time since the trace began.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ctxKey is the context key type for traces; unexported so only this
// package can attach one.
type ctxKey struct{}

// NewContext returns a context carrying the trace.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext recovers the request's trace, or nil when the context does
// not carry one (benchmarks, library use). The nil result is safe to use.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
