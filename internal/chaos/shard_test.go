package chaos_test

// Server-level proof of the sharding guarantees: a sharded server is
// byte-identical to an unsharded one at every shard count — JSON bodies,
// PNG bodies, and ETags, cold and warm — executors killed and restarted
// mid-query degrade to honest 503s (never silently partial answers) and
// leak nothing, and a post-chaos replay matches a pristine server.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/gpu"
	"repro/internal/urbane"
	"repro/internal/workload"
)

var shardCounts = []int{1, 2, 4, 8}

// get issues one GET and returns the recorder.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// post issues one JSON POST and returns the recorder.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// compareReplays requires two replay traces to agree response by response.
func compareReplays(t *testing.T, label string, got, want []chaos.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: replay lengths differ: %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Status != want[i].Status {
			t.Errorf("%s: replay %d (%s %s): status %d vs %d",
				label, i, got[i].Kind, got[i].Path, got[i].Status, want[i].Status)
			continue
		}
		if !bytes.Equal(got[i].Body, want[i].Body) {
			t.Errorf("%s: replay %d (%s %s): body diverged (%d vs %d bytes)",
				label, i, got[i].Kind, got[i].Path, len(got[i].Body), len(want[i].Body))
		}
	}
}

// TestShardServerByteIdentical is the server-level equivalence matrix: at
// every shard count, a randomized request mix replayed cold and then warm
// (second pass served from the response cache) answers byte-for-byte like
// an unsharded server — and the image endpoints agree on PNG bodies AND
// ETags, which requires sharding to leave the catalog version untouched.
func TestShardServerByteIdentical(t *testing.T) {
	const replayN = 60
	plain := urbane.NewServer(buildFramework(t, gpu.New(), false), urbane.WithCache(8<<20))
	wantCold := chaos.Replay(plain, mixConfig(), 1331, replayN)
	wantWarm := chaos.Replay(plain, mixConfig(), 1331, replayN)

	images := []string{
		"/api/render/choropleth.png?dataset=taxi&layer=nbhd&agg=sum&attr=fare&w=128",
		"/api/tile/10/301/385.png?dataset=311",
	}
	wantImg := make([]*httptest.ResponseRecorder, len(images))
	for i, p := range images {
		wantImg[i] = get(plain, p)
		if wantImg[i].Code != http.StatusOK {
			t.Fatalf("baseline %s: status %d", p, wantImg[i].Code)
		}
	}

	for _, n := range shardCounts {
		f := buildFramework(t, gpu.New(), false)
		f.EnableSharding(n)
		srv := urbane.NewServer(f, urbane.WithCache(8<<20))
		label := fmt.Sprintf("shards=%d", n)
		compareReplays(t, label+" cold", chaos.Replay(srv, mixConfig(), 1331, replayN), wantCold)
		compareReplays(t, label+" warm", chaos.Replay(srv, mixConfig(), 1331, replayN), wantWarm)
		for i, p := range images {
			got := get(srv, p)
			if got.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d", label, p, got.Code)
			}
			if !bytes.Equal(got.Body.Bytes(), wantImg[i].Body.Bytes()) {
				t.Errorf("%s %s: PNG body diverged", label, p)
			}
			gTag, wTag := got.Header().Get("ETag"), wantImg[i].Header().Get("ETag")
			if gTag == "" || gTag != wTag {
				t.Errorf("%s %s: ETag %q, want %q", label, p, gTag, wTag)
			}
		}
		if co := f.Sharding(); co.Layouts() == 0 {
			t.Errorf("%s: no layouts built — requests bypassed the coordinator", label)
		}
	}
}

// TestShardUnavailableEnvelope is the regression for the degraded-response
// contract: with shards 0 and 2 down, a compute endpoint answers the
// standard 503 envelope with a Retry-After header, the message names the
// lowest failed shard deterministically on every attempt, and a restart
// fully recovers.
func TestShardUnavailableEnvelope(t *testing.T) {
	f := buildFramework(t, gpu.New(), false)
	co := f.EnableSharding(4)
	srv := urbane.NewServer(f, urbane.WithCache(8<<20))
	// Ad-hoc filter keeps the request off geoblocks and on the raster path.
	body := `{"dataset":"taxi","layer":"nbhd","agg":"sum","attr":"fare","filters":[{"attr":"fare","min":1,"max":30}]}`

	co.Kill(0)
	co.Kill(2)
	for trial := 0; trial < 10; trial++ {
		rec := post(srv, "/api/mapview", body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("trial %d: status %d, want 503 (body %s)", trial, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("trial %d: 503 without Retry-After", trial)
		}
		got := rec.Body.String()
		if !strings.Contains(got, `"error"`) || !strings.Contains(got, `"status":503`) {
			t.Fatalf("trial %d: not the standard envelope: %s", trial, got)
		}
		if !strings.Contains(got, "shard 0:") {
			t.Fatalf("trial %d: error does not deterministically name shard 0: %s", trial, got)
		}
	}
	co.Restart(0)
	co.Restart(2)
	if rec := post(srv, "/api/mapview", body); rec.Code != http.StatusOK {
		t.Fatalf("after restart: status %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestShardChaosKillRestartSoak is the headline chaos run for sharded
// execution: virtual users hammer a 4-shard server with client
// cancellations while a disruptor kills and restarts random executors
// every few hundred microseconds. Every response must honor the envelope
// contract (degraded answers are honest 503s, never silently partial
// 200s), nothing may leak, and once the shards are restored a replay must
// match a pristine unsharded server byte-for-byte.
func TestShardChaosKillRestartSoak(t *testing.T) {
	vus, perVU := 48, 12
	if testing.Short() {
		vus, perVU = 8, 6
	}
	dev := gpu.New()
	f := buildFramework(t, dev, false)
	co := f.EnableSharding(4)
	srv := urbane.NewServer(f, urbane.WithCache(8<<20), urbane.WithQueryTimeout(5*time.Second))

	before := runtime.NumGoroutine()
	// Disrupt runs in a single goroutine, so the rng needs no lock.
	rng := rand.New(rand.NewSource(2024))
	rep := chaos.Soak(context.Background(), srv, chaos.Config{
		VUs: vus, Requests: perVU, Seed: 31, CancelFrac: 0.1, Mix: mixConfig(),
		DisruptEvery: 300 * time.Microsecond,
		Disrupt: func(step int) {
			if step < 0 {
				for i := 0; i < 4; i++ {
					co.Restart(i)
				}
				return
			}
			i := rng.Intn(4)
			if co.Down(i) {
				co.Restart(i)
			} else {
				co.Kill(i)
			}
		},
	})
	t.Logf("shard soak: %s", rep)
	for _, v := range rep.Violations {
		t.Errorf("contract violation: %s", v)
	}
	if rep.Total != vus*perVU {
		t.Errorf("completed %d requests, want %d", rep.Total, vus*perVU)
	}
	if rep.ByStatus[200] == 0 {
		t.Error("soak produced no successful responses")
	}
	for i := 0; i < 4; i++ {
		if co.Down(i) {
			t.Errorf("shard %d still down after soak; Disrupt(-1) restore missing", i)
		}
	}

	waitIdle(t, "goroutines", func() bool { return runtime.NumGoroutine() <= before+3 })
	waitIdle(t, "canvases", func() bool { return dev.LiveCanvases() == 0 })
	waitIdle(t, "textures", func() bool { return dev.LiveTextures() == 0 })
	st := co.Stats()
	for _, ns := range st {
		if ns.Inflight != 0 {
			t.Errorf("shard %d: %d passes still in flight after soak", ns.Shard, ns.Inflight)
		}
	}

	// Kills never poison anything: with every shard back, the soaked
	// sharded server answers a fresh deterministic mix byte-for-byte like
	// a pristine server that never sharded at all.
	pristine := urbane.NewServer(buildFramework(t, gpu.New(), false), urbane.WithCache(8<<20))
	const replayN = 80
	compareReplays(t, "post-chaos",
		chaos.Replay(srv, mixConfig(), 5151, replayN),
		chaos.Replay(pristine, mixConfig(), 5151, replayN))
}

// TestMixedDatasetEpochIsolation drives the two-dataset interleaved
// workload family against a sharded server and pins per-dataset epoch
// isolation: an append to one dataset invalidates only that dataset's
// cached responses — the sibling's stay warm — and shard routing keeps
// answering both correctly throughout.
func TestMixedDatasetEpochIsolation(t *testing.T) {
	f := buildFramework(t, gpu.New(), false)
	co := f.EnableSharding(4)
	srv := urbane.NewServer(f, urbane.WithCache(8<<20))

	// Two cacheable probes, one per dataset, with ad-hoc filters so they
	// take the sharded raster path.
	probe := map[string]string{
		"taxi": `{"dataset":"taxi","layer":"nbhd","agg":"sum","attr":"fare","filters":[{"attr":"fare","min":1,"max":30}]}`,
		"311":  `{"dataset":"311","layer":"grid","agg":"count","filters":[{"attr":"fare","min":2,"max":25}]}`,
	}
	warm := func(ds string) string {
		rec := post(srv, "/api/mapview", probe[ds])
		if rec.Code != http.StatusOK {
			t.Fatalf("probe %s: status %d (%s)", ds, rec.Code, rec.Body.String())
		}
		return rec.Header().Get("X-Urbane-Cache")
	}
	warm("taxi")
	warm("311")
	if got := warm("taxi"); got != "hit" {
		t.Fatalf("taxi probe not warm before interleave: %q", got)
	}

	// Run the deterministic interleave; every response must be 2xx.
	mixed := workload.NewMixed(mixConfig(), 97)
	lastAppend := "" // dataset of the most recent append step
	for i := 0; i < 36; i++ {
		ds := mixConfig().Datasets[mixed.Dataset(i)]
		isAppend := mixed.IsAppend(i)
		hr := mixed.Next()
		var rec *httptest.ResponseRecorder
		if hr.Method == http.MethodGet {
			rec = get(srv, hr.Path)
		} else {
			rec = post(srv, hr.Path, hr.Body)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("step %d (%s): status %d (%s)", i, hr.Kind, rec.Code, rec.Body.String())
		}
		if isAppend {
			lastAppend = ds
		}
	}
	if lastAppend == "" {
		t.Fatal("interleave issued no appends")
	}

	// After appends to both datasets: re-warm both probes, then append to
	// taxi only and verify isolation — taxi misses (fresh epoch), 311 hits.
	warm("taxi")
	warm("311")
	app := workload.NewAppender(workload.MixConfig{
		Datasets: []string{"taxi"},
		TimeMin:  0, TimeMax: 10 * 86400, // past every soak append cursor
		Bounds: [4]float64{0, 0, 1000, 1000},
		Attrs:  map[string][]string{"taxi": {"fare"}},
	}, 555)
	hr := app.Next()
	if rec := post(srv, hr.Path, hr.Body); rec.Code != http.StatusOK {
		t.Fatalf("append: status %d (%s)", rec.Code, rec.Body.String())
	}
	if got := warm("taxi"); got == "hit" {
		t.Fatal("taxi probe still warm after taxi append; epoch did not advance")
	}
	if got := warm("311"); got != "hit" {
		t.Fatalf("311 probe outcome %q after taxi append, want hit (epoch isolation)", got)
	}
	if co.Layouts() == 0 {
		t.Error("no shard layouts cached after mixed workload")
	}
}
