package trace

import (
	"context"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	sp.End()
	if got := tr.Header(); got != "" {
		t.Fatalf("nil trace header = %q, want empty", got)
	}
	if tr.Spans() != nil {
		t.Fatal("nil trace should have no spans")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("background context should carry no trace")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil ctx is the point
		t.Fatal("nil context should carry no trace")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New("query")
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
	if tr.Name() != "query" {
		t.Fatalf("Name = %q", tr.Name())
	}
}

func TestHeaderFormat(t *testing.T) {
	tr := New("query")
	sp := tr.Start("parse")
	sp.End()
	ex := tr.Start("execute")
	ex.End()
	tr.Count("tiles", 1)
	tr.Count("batches", 3)
	tr.Count("batches", 2)
	h := tr.Header()
	// Stage order preserved, counters sorted after the stages, total last.
	re := regexp.MustCompile(`^parse=\d+\.\d{2};execute=\d+\.\d{2};batches=5;tiles=1;total=\d+\.\d{2}$`)
	if !re.MatchString(h) {
		t.Fatalf("header %q does not match %v", h, re)
	}
}

// TestStageSumsPieces: a stage span is the sum of the pieces added to it,
// renders once with its counters in key order, and is nil-safe.
func TestStageSumsPieces(t *testing.T) {
	tr := New("mapview")
	st := tr.Stage("core.refine")
	st.Add(1500 * time.Microsecond)
	st.Add(2 * time.Millisecond)
	st.Count("refine_edge_tests", 7)
	st.Count("boundary_obs", 3)
	st.Count("boundary_obs", 2)
	if got := tr.Spans()[0]; got.Duration != 3500*time.Microsecond || got.Counters["boundary_obs"] != 5 {
		t.Fatalf("stage = %+v, want 3.5ms and boundary_obs=5", got)
	}
	re := regexp.MustCompile(`^core\.refine=3\.50\(boundary_obs=5,refine_edge_tests=7\);total=\d+\.\d{2}$`)
	if h := tr.Header(); !re.MatchString(h) {
		t.Fatalf("header %q does not match %v", h, re)
	}
	var none *Trace
	sp := none.Stage("core.pass1")
	sp.Add(time.Second)
	sp.Count("x", 1)
	if none.Spans() != nil {
		t.Fatal("nil trace recorded a stage")
	}
}

func TestTraceCounters(t *testing.T) {
	tr := New("query")
	sp := tr.Start("execute")
	tr.Count("tiles", 1)
	tr.Count("batches", 4)
	tr.Count("batches", 8)
	sp.End()
	if got := tr.Counters(); got["batches"] != 12 || got["tiles"] != 1 {
		t.Fatalf("counters = %v", got)
	}
	h := tr.Header()
	re := regexp.MustCompile(`^execute=\d+\.\d{2};batches=12;tiles=1;total=\d+\.\d{2}$`)
	if !re.MatchString(h) {
		t.Fatalf("header %q does not match %v", h, re)
	}
	var nilTr *Trace
	nilTr.Count("x", 1) // nil-safe
	if nilTr.Counters() != nil {
		t.Fatal("nil trace counters should be nil")
	}
}

// TestSpanDurationFreezes: End freezes a span's wall time, and a second
// End keeps the first.
func TestSpanDurationFreezes(t *testing.T) {
	tr := New("x")
	sp := tr.Start("s")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	d := tr.Spans()[0].Duration
	if d <= 0 {
		t.Fatalf("duration = %v, want > 0", d)
	}
	time.Sleep(2 * time.Millisecond)
	if got := tr.Spans()[0].Duration; got != d {
		t.Fatalf("duration moved after End: %v != %v", got, d)
	}
	sp.End() // second End keeps the first duration
	if got := tr.Spans()[0].Duration; got != d {
		t.Fatalf("duration moved after second End: %v != %v", got, d)
	}
}

// TestConcurrentSpanCounters: counters added by the goroutines of a
// parallel stage while its span is open all land.
func TestConcurrentSpanCounters(t *testing.T) {
	tr := New("x")
	sp := tr.Start("execute")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.Count("batches", 1)
			}
		}()
	}
	wg.Wait()
	sp.End()
	if got := tr.Counters()["batches"]; got != 8000 {
		t.Fatalf("batches = %d, want 8000", got)
	}
}

func TestRegistryOutcomes(t *testing.T) {
	r := NewRegistry()
	ep := r.Endpoint("query")
	if again := r.Endpoint("query"); again != ep {
		t.Fatal("Endpoint not memoized")
	}

	end := ep.Begin()
	if got := ep.Stats().InFlight; got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}
	end(200, 5*time.Millisecond)

	ep.Begin()(StatusGatewayTimeout, time.Millisecond)
	ep.Begin()(StatusClientClosedRequest, time.Millisecond)
	ep.Begin()(400, time.Millisecond)
	ep.Begin()(0, time.Millisecond) // status never written counts as ok

	s := ep.Stats()
	if s.InFlight != 0 {
		t.Fatalf("inflight = %d, want 0", s.InFlight)
	}
	if s.OK != 2 || s.Timeouts != 1 || s.Canceled != 1 || s.Errors != 1 || s.Count != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	// 90 fast samples, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.observe(0.2)
	}
	for i := 0; i < 10; i++ {
		h.observe(100)
	}
	s := h.summary()
	if s.Min != 0.2 || s.Max != 100 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 > 1 {
		t.Fatalf("p50 = %v, want <= first bucket", s.P50)
	}
	if s.P99 < 50 {
		t.Fatalf("p99 = %v, want to land in the slow tail", s.P99)
	}
	if got := s.Mean; got < 10 || got > 11 {
		t.Fatalf("mean = %v, want ~10.18", got)
	}
	var n uint64
	for _, c := range s.Buckets {
		n += c
	}
	if n != 100 {
		t.Fatalf("bucket total = %d, want 100", n)
	}
	if len(s.Bounds) != len(s.Buckets) || s.Bounds[len(s.Bounds)-1] != -1 {
		t.Fatalf("bounds malformed: %v", s.Bounds)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Endpoint("tile").Begin()(200, time.Millisecond)
	r.Endpoint("query").Begin()(200, time.Millisecond)
	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name)
	}
	if strings.Join(names, ",") != "query,tile" {
		t.Fatalf("snapshot order = %v", names)
	}
	if r.Uptime() <= 0 {
		t.Fatal("uptime should be positive")
	}
}
