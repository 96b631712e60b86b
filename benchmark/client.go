package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
)

// request is one API call of a workload stream.
type request struct {
	Method, Path, Body string
	// Family labels the request for per-family reporting.
	Family string
	// Stable marks a request whose body bytes are a pure function of the
	// request for the whole run (cached read endpoints over data sets
	// nothing appends to): two replies to the same request must be equal.
	Stable bool
	// Keep retains the response body for the post-run oracle.
	Keep bool
}

func (r request) key() string { return r.Method + " " + r.Path + "\n" + r.Body }

// stream yields one client's requests. next is called from that client's
// goroutine only; done reports the reply to the request just issued, before
// next is called again, so a stream can track server state (what has been
// appended so far).
type stream interface {
	next() request
	done(req request, status int, body []byte)
}

// sample is one completed request.
type sample struct {
	Client, Seq int
	Req         request
	Start, End  time.Time
	Status      int
	ComputeMs   float64 // X-Urbane-Elapsed-Ms
	Cache       string  // X-Urbane-Cache
	Trace       string  // X-Urbane-Trace
	Body        []byte  // only when Req.Keep
	Sum         [sha256.Size]byte
	Fail        string // non-empty: why this request counts as failed
}

func (s *sample) latencyMs() float64 { return float64(s.End.Sub(s.Start)) / float64(time.Millisecond) }

// clientRun is what one closed-loop client produced.
type clientRun struct {
	warm     []sample
	measured []sample
	// recording is the time the client spent turning measured replies into
	// spans (traced runs only): think time the untraced run does not have.
	recording time.Duration
	// calib holds the host-speed kernel runs this client made between its
	// measured requests (calib.go).
	calib *calibrator
}

// runClients drives streams[i] from client i: each client sends its next
// request only when the previous reply has been read to the end (closed
// loop), over its own single connection. The first warmup requests of each
// client are untimed; then every client measures until the shared deadline
// and finishes the request it has in flight; limit > 0 also stops a client
// after that many measured requests (the smoke test's fixed sample). Wall
// time runs from the moment the last client finished warming up to the last
// completion. Before every calibEvery-th measured request a client runs the
// host-speed kernel once: think time, outside every latency.
//
// With a recorder — the traced run — every client records each request's
// spans as it completes. That happens after the request's end is stamped, so
// tracing cannot lengthen a measured latency; in a closed loop it delays the
// client's next request instead, and the time it takes is kept per client.
func runClients(ctx context.Context, base string, streams []stream, warmup int, dur time.Duration, limit int, rec *recorder, name string) ([]clientRun, time.Duration) {
	runs := make([]clientRun, len(streams))
	var finished sync.WaitGroup
	finished.Add(len(streams))
	var t0 time.Time
	warmed := make(chan struct{}, len(streams)) // one send per client
	gate := make(chan struct{})
	go func() {
		for range streams {
			<-warmed
		}
		t0 = time.Now()
		close(gate)
	}()
	for i, st := range streams {
		go func(i int, st stream) {
			defer finished.Done()
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			seq := 0
			step := func(into *[]sample) time.Duration {
				s := issue(ctx, hc, base, st, i, seq)
				*into = append(*into, s)
				seq++
				if rec == nil || s.Status == 0 {
					return 0
				}
				t := time.Now()
				rec.add(requestSpans(rec, name, &s)...)
				return time.Since(t)
			}
			for seq < warmup && ctx.Err() == nil {
				step(&runs[i].warm)
			}
			cal := newCalibrator()
			runs[i].calib = cal
			warmed <- struct{}{}
			<-gate
			deadline := t0.Add(dur)
			for (limit == 0 || seq < warmup+limit) && time.Now().Before(deadline) && ctx.Err() == nil {
				if len(runs[i].measured)%calibEvery == 0 {
					cal.sample()
				}
				runs[i].recording += step(&runs[i].measured)
			}
		}(i, st)
	}
	finished.Wait()
	return runs, time.Since(t0)
}

// issue sends one request and classifies the reply. Latency is send → body
// fully read; validation happens after the clock stops.
func issue(ctx context.Context, hc *http.Client, base string, st stream, client, seq int) sample {
	req := st.next()
	s := sample{Client: client, Seq: seq, Req: req}
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.Method, base+req.Path, body)
	if err != nil {
		s.Start, s.End = time.Now(), time.Now()
		s.Fail = "building request: " + err.Error()
		st.done(req, 0, nil)
		return s
	}
	if req.Body != "" {
		hr.Header.Set("Content-Type", "application/json")
	}
	s.Start = time.Now()
	resp, err := hc.Do(hr)
	var payload []byte
	if err == nil {
		payload, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.End = time.Now()
	if err != nil {
		s.Fail = "transport: " + err.Error()
		st.done(req, 0, nil)
		return s
	}
	s.Status = resp.StatusCode
	s.ComputeMs, _ = strconv.ParseFloat(resp.Header.Get("X-Urbane-Elapsed-Ms"), 64)
	s.Cache = resp.Header.Get("X-Urbane-Cache")
	s.Trace = resp.Header.Get("X-Urbane-Trace")
	s.Sum = sha256.Sum256(payload)
	if req.Keep {
		s.Body = payload
	}
	switch {
	case s.Status != http.StatusOK && s.Status != http.StatusNotModified:
		s.Fail = fmt.Sprintf("status %d: %s", s.Status, bytes.TrimSpace(payload))
	default:
		if verr := chaos.ValidateResponse(req.Method, req.Path, s.Status, resp.Header, payload); verr != nil {
			s.Fail = "contract: " + verr.Error()
		}
	}
	st.done(req, s.Status, payload)
	return s
}
