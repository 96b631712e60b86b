package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestStatsSmoke is the end-to-end deadline smoke test behind `make
// stats-smoke`: boot the real server with a -query-timeout no raster join
// can meet, fire a map-view query, and require (a) a 504 with the
// query_timeout error code and (b) a nonzero timeout counter in GET
// /api/stats, with render resources draining to zero. The 504 is written
// when the waiter leaves; the detached compute still holds its canvas until
// its next ctx poll (qcache.DoContext's eventual-quiescence contract), so
// the leak check polls with a bounded deadline instead of asserting on the
// first read.
func TestStatsSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-points", "20000", "-query-timeout", "1ms",
		}, ready, nil)
	}()

	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server did not come up")
	}
	base := "http://" + addr.String()

	resp, err := http.Post(base+"/api/mapview", "application/json",
		strings.NewReader(`{"dataset":"taxi","layer":"neighborhoods","agg":"count"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("mapview under 1ms deadline: status = %d, want 504; body %s",
			resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "query_timeout") {
		t.Errorf("504 body lacks query_timeout code: %s", body)
	}
	if resp.Header.Get("X-Urbane-Elapsed-Ms") == "" {
		t.Error("504 response missing X-Urbane-Elapsed-Ms header")
	}

	var stats struct {
		QueryTimeoutMs float64 `json:"queryTimeoutMs"`
		LiveCanvases   int     `json:"liveCanvases"`
		LiveTextures   int     `json:"liveTextures"`
		Endpoints      []struct {
			Name     string `json:"name"`
			Timeouts uint64 `json:"timeouts"`
			InFlight int64  `json:"inFlight"`
		} `json:"endpoints"`
	}
	var statsBody []byte
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err = http.Get(base + "/api/stats")
		if err != nil {
			t.Fatal(err)
		}
		statsBody, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/api/stats status = %d: %s", resp.StatusCode, statsBody)
		}
		if err := json.Unmarshal(statsBody, &stats); err != nil {
			t.Fatalf("decoding /api/stats: %v (%s)", err, statsBody)
		}
		if (stats.LiveCanvases == 0 && stats.LiveTextures == 0) || time.Now().After(deadline) {
			break
		}
	}
	if stats.QueryTimeoutMs != 1 {
		t.Errorf("queryTimeoutMs = %v, want 1", stats.QueryTimeoutMs)
	}
	if stats.LiveCanvases != 0 || stats.LiveTextures != 0 {
		t.Errorf("render resources still live 2s after timeout: canvases=%d textures=%d",
			stats.LiveCanvases, stats.LiveTextures)
	}
	found := false
	for _, ep := range stats.Endpoints {
		if ep.Name == "/api/mapview" {
			found = true
			if ep.Timeouts == 0 {
				t.Errorf("/api/mapview timeouts = 0, want > 0: %s", statsBody)
			}
			if ep.InFlight != 0 {
				t.Errorf("/api/mapview inFlight = %d, want 0", ep.InFlight)
			}
		}
	}
	if !found {
		t.Errorf("/api/mapview missing from stats: %s", statsBody)
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
