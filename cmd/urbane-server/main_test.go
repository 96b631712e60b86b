package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/admit"
)

// TestGracefulShutdownSIGTERM exercises the full signal path: the server
// comes up, a request is held in flight, the test process receives a real
// SIGTERM, and the server must (a) let the in-flight request finish with
// 200 and (b) return from run without error.
func TestGracefulShutdownSIGTERM(t *testing.T) {
	// Same signal wiring as main(); NotifyContext absorbs the SIGTERM so
	// the test binary survives it.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	inFlight := make(chan struct{})
	release := make(chan struct{})
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(inFlight) // request has reached the handler
			<-release       // hold it while SIGTERM arrives
			h.ServeHTTP(w, r)
		})
	}

	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-points", "2000"}, ready, wrap)
	}()

	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server did not come up")
	}

	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/api/datasets")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: body}
	}()

	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the handler")
	}

	// SIGTERM lands while the request is still being served.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Give Shutdown a moment to begin draining, then let the request go.
	time.Sleep(100 * time.Millisecond)
	close(release)

	select {
	case res := <-resc:
		if res.err != nil {
			t.Fatalf("in-flight request failed during shutdown: %v", res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("in-flight request got status %d, body %s", res.status, res.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned error after graceful shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
}

// TestShutdownViaContextCancel covers the plain context-cancellation path
// (what SIGINT triggers through NotifyContext) with no traffic at all.
func TestShutdownViaContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-points", "2000"}, ready, nil)
	}()
	select {
	case <-ready:
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server did not come up")
	}
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned error on cancel: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after context cancel")
	}
}

// TestMaxInflightUsesAdmitDefaults: -max-inflight is the one admission
// flag; the queue and its wait bound are admit's defaults.
func TestMaxInflightUsesAdmitDefaults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-points", "2000", "-max-inflight", "3"}, ready, nil)
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server did not come up")
	}
	resp, err := http.Get("http://" + addr.String() + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Admission struct {
			Enabled     bool    `json:"enabled"`
			MaxInFlight int64   `json:"maxInFlight"`
			QueueCap    int     `json:"queueCap"`
			MaxWaitMs   float64 `json:"maxWaitMs"`
		} `json:"admission"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	a := stats.Admission
	if !a.Enabled || a.MaxInFlight != 3 || a.QueueCap != admit.DefaultQueue ||
		a.MaxWaitMs != float64(admit.DefaultMaxWait.Milliseconds()) {
		t.Errorf("admission = %+v, want enabled, maxInFlight 3, queueCap %d, maxWaitMs %d",
			a, admit.DefaultQueue, admit.DefaultMaxWait.Milliseconds())
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run returned error on cancel: %v", err)
	}
}

// TestRunRejectsBadFlags: a value the server cannot use makes run return an
// error naming its flag before anything is generated or bound. -points -1
// used to panic in data.Generate; the others were quietly reinterpreted.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"points", "-1"},
		{"resolution", "0"},
		{"resolution", "-5"},
		{"cache-bytes", "-1"},
		{"segment-cache-bytes", "-1"},
		{"query-timeout", "-1s"},
		{"max-inflight", "-1"},
		{"time-snap", "0"},
		{"time-snap", "-3600"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("run panicked: %v", p)
				}
			}()
			// A cancelled context: a run that wrongly accepts the value
			// shuts down as soon as it has listened.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ready := make(chan net.Addr, 1)
			err := run(ctx, []string{"-addr", "127.0.0.1:0", "-points", "100",
				"-" + tc.flag, tc.value}, ready, nil)
			if err == nil || !strings.Contains(err.Error(), "-"+tc.flag) {
				t.Errorf("run error = %v, want one naming -%s", err, tc.flag)
			}
			if len(ready) != 0 {
				t.Errorf("run listened on %v", <-ready)
			}
		})
	}
}

// readmeFlagRow matches one row of README's flag table:
// "| `-name` | `default` | ... |".
var readmeFlagRow = regexp.MustCompile("^\\| `-([a-z-]+)` \\| `([^`]*)` \\|")

// TestReadmeFlagTable: README's "Server flags" table lists exactly the
// binary's flags, each with the default the flag set declares.
func TestReadmeFlagTable(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n### Server flags\n")
	if !ok {
		t.Fatal(`README has no "### Server flags" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if m := readmeFlagRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = m[2]
		}
	}
	defined := map[string]string{}
	newFlagSet(&config{}).VisitAll(func(f *flag.Flag) { defined[f.Name] = f.DefValue })
	if !maps.Equal(documented, defined) {
		t.Errorf("README flag table lists %v; urbane-server defines %v", documented, defined)
	}
}
