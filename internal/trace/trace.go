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
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	duration time.Duration
	ended    bool
}

// Start opens a span. Nil-safe: a nil trace returns a nil span whose
// methods are all no-ops, so instrumented code never branches.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
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
		sp.mu.Unlock()
		out[i] = s
	}
	return out
}

// Header renders the trace as the X-Urbane-Trace value: semicolon-separated
// stages with millisecond wall times, then the trace-level counters,
// ending with the total elapsed time —
//
//	parse=0.05;plan=0.02;execute=41.80;batches=12;tiles=1;total=42.95
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
	}
	counters := t.Counters()
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
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
