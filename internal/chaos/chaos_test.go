package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/segment"
	"repro/internal/urbane"
	"repro/internal/workload"
)

// buildFramework registers a small two-dataset, two-layer catalog over a
// 1000x1000 world. Construction is fully seeded, so two calls produce
// frameworks whose query results are byte-identical — the property the
// post-chaos replay comparison rests on. With segments set, every data set
// is additionally materialized into a columnar segment file and attached
// with a one-block cache budget, so ad-hoc execution runs the out-of-core
// block-pruned path; replay against a non-segment framework then asserts
// the two execution paths answer byte-identically.
func buildFramework(t testing.TB, dev *gpu.Device, segments bool, opts ...core.RJOption) *urbane.Framework {
	t.Helper()
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	rng := rand.New(rand.NewSource(77))
	mk := func(name string, n int) *data.PointSet {
		ps := &data.PointSet{Name: name,
			X: make([]float64, n), Y: make([]float64, n), T: make([]int64, n)}
		fares := make([]float64, n)
		for i := 0; i < n; i++ {
			ps.X[i] = rng.Float64() * 1000
			ps.Y[i] = rng.Float64() * 1000
			ps.T[i] = int64(rng.Intn(8 * 3600))
			fares[i] = rng.Float64() * 40
		}
		// Pin the world corners so the geoblocks hierarchy spans the full
		// bounds: ingest soaks append uniform points over [0,1000]^2, and a
		// point outside the built hierarchy's bbox forces a patch fallback.
		ps.X[0], ps.Y[0] = 0, 0
		ps.X[1], ps.Y[1] = 1000, 1000
		ps.Attrs = []data.Column{{Name: "fare", Values: fares}}
		ps.SortByTime()
		return ps
	}
	rjOpts := append([]core.RJOption{core.WithDevice(dev),
		core.WithMode(core.Accurate), core.WithResolution(128)}, opts...)
	f := urbane.New(core.NewRasterJoin(rjOpts...))
	sets := []*data.PointSet{mk("taxi", 1200), mk("311", 600)}
	for _, ps := range sets {
		if err := f.AddPointSet(ps); err != nil {
			t.Fatal(err)
		}
	}
	if segments {
		dir := t.TempDir()
		for _, ps := range sets {
			path := filepath.Join(dir, ps.Name+".useg")
			file, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := segment.Write(file, ps, segment.WithBlockSize(256)); err != nil {
				t.Fatal(err)
			}
			if err := file.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := segment.Open(path, segment.WithCacheBytes(16<<10))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			if err := f.AttachSegments(ps.Name, st); err != nil {
				t.Fatal(err)
			}
		}
	}
	nbhd := data.VoronoiRegions("nbhd", bounds, 12, 9, data.VoronoiOptions{JitterFrac: 0.06})
	grid := data.GridRegions("grid", bounds, 4, 4)
	for _, rs := range []*data.RegionSet{nbhd, grid} {
		if err := f.AddRegionSet(rs); err != nil {
			t.Fatal(err)
		}
	}
	// The hierarchy serves the mix's polygon family; enabling it on every
	// framework (soaked and pristine alike) keeps replay byte-identical.
	f.EnableGeoBlocks(6)
	return f
}

func mixConfig() workload.MixConfig {
	return workload.MixConfig{
		Datasets: []string{"taxi", "311"},
		Layers:   []string{"nbhd", "grid"},
		Attrs:    map[string][]string{"taxi": {"fare"}, "311": {"fare"}},
		TimeMin:  0, TimeMax: 8 * 3600,
		Regions: 12,
		Bounds:  [4]float64{0, 0, 1000, 1000},
	}
}

// waitIdle polls cond until it holds or the deadline passes.
func waitIdle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s did not settle within 15s", what)
}

// TestChaosSoak is the headline chaos run: a seeded fault schedule across
// every hook site, admission control at a capacity far below the offered
// load, aggressive client deadlines on a slice of requests — and the
// assertions that every response honors the envelope contract, nothing
// leaks, and the caches come out unpoisoned (replay after the soak is
// byte-identical to a pristine server).
func TestChaosSoak(t *testing.T) {
	vus, perVU := 64, 12
	if testing.Short() {
		vus, perVU = 8, 6
	}

	dev := gpu.New()
	f := buildFramework(t, dev, true)
	reg := fault.New(42)
	reg.Set("core.pointpass", fault.Rule{Prob: 0.05, Kind: fault.Latency, Delay: 2 * time.Millisecond})
	reg.Set("qcache.compute", fault.Rule{Prob: 0.05, Kind: fault.Error})
	reg.Set("server.decode", fault.Rule{Prob: 0.03, Kind: fault.Error})
	reg.Set("core.join", fault.Rule{Prob: 0.03, Kind: fault.Cancel})
	ctl := admit.New(4, 16, 25*time.Millisecond)
	srv := urbane.NewServer(f,
		urbane.WithCache(8<<20),
		urbane.WithAdmission(ctl),
		urbane.WithFaults(reg),
		urbane.WithQueryTimeout(5*time.Second),
	)

	before := runtime.NumGoroutine()
	rep := chaos.Soak(context.Background(), srv, chaos.Config{
		VUs: vus, Requests: perVU, Seed: 7, CancelFrac: 0.15, Mix: mixConfig(),
	})
	t.Logf("soak: %s", rep)
	for _, v := range rep.Violations {
		t.Errorf("contract violation: %s", v)
	}
	if rep.Total != vus*perVU {
		t.Errorf("completed %d requests, want %d", rep.Total, vus*perVU)
	}
	if rep.ByStatus[200] == 0 {
		t.Error("soak produced no successful responses")
	}
	// The fault schedule is seeded, so injected failures must actually
	// surface: server.decode errors map to 400 and qcache.compute /
	// core.join faults to 400/499 — the soak is vacuous if everything
	// came back 200.
	if rep.ByStatus[200] == rep.Total {
		t.Error("no injected fault or cancellation surfaced; chaos schedule did not fire")
	}

	// Shed requests and canceled clients must leak nothing: goroutines
	// drain, render resources return to their pools, the admission
	// semaphore reads idle.
	waitIdle(t, "goroutines", func() bool { return runtime.NumGoroutine() <= before+3 })
	waitIdle(t, "canvases", func() bool { return dev.LiveCanvases() == 0 })
	waitIdle(t, "textures", func() bool { return dev.LiveTextures() == 0 })
	// An abandoned compute releases its admission slot at its next context
	// poll, which need not come while it holds a canvas: poll the gauge
	// like the others instead of reading it once.
	waitIdle(t, "admission", func() bool {
		adm := admission(t, srv)
		return adm.InFlight == 0 && adm.Queued == 0
	})
	if adm := admission(t, srv); adm.Admitted == 0 {
		t.Error("admission controller admitted nothing; wiring is broken")
	}

	// Faults must never poison the caches: with injection cleared, the
	// soaked server must answer a fresh deterministic mix byte-for-byte
	// like a pristine server over the same catalog.
	reg.Clear()
	pristine := urbane.NewServer(buildFramework(t, gpu.New(), false), urbane.WithCache(8<<20))
	const replayN = 80
	got := chaos.Replay(srv, mixConfig(), 4242, replayN)
	want := chaos.Replay(pristine, mixConfig(), 4242, replayN)
	if len(got) != len(want) {
		t.Fatalf("replay lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Status != want[i].Status {
			t.Errorf("replay %d (%s %s): status %d vs pristine %d",
				i, got[i].Kind, got[i].Path, got[i].Status, want[i].Status)
			continue
		}
		if !bytes.Equal(got[i].Body, want[i].Body) {
			t.Errorf("replay %d (%s %s): body diverged from pristine server (%d vs %d bytes)",
				i, got[i].Kind, got[i].Path, len(got[i].Body), len(want[i].Body))
		}
	}
}

// TestSoakCleanServer pins the baseline: with no faults, no admission
// pressure, and no client cancellation, every generated request succeeds —
// so any non-200 seen under chaos is attributable to the chaos, not to the
// mix emitting garbage.
func TestSoakCleanServer(t *testing.T) {
	f := buildFramework(t, gpu.New(), true)
	srv := urbane.NewServer(f, urbane.WithCache(8<<20))
	rep := chaos.Soak(context.Background(), srv, chaos.Config{
		VUs: 4, Requests: 10, Seed: 11, Mix: mixConfig(),
	})
	for _, v := range rep.Violations {
		t.Errorf("contract violation: %s", v)
	}
	if rep.ByStatus[200] != rep.Total {
		t.Errorf("clean soak not all-200: %s", rep)
	}
}

// TestIngestSoakReplay is the concurrent-ingest counterpart of
// TestChaosSoak: readers hammer the cached endpoints while a writer
// streams appends, and afterwards a pristine server is fed the identical
// append sequence sequentially (ReplayAppends). Replaying the read mix
// against both must be byte-identical — appends racing reads (new epochs,
// slab partials keyed by snapshot, geoblocks patches) may never leave the
// soaked server answering differently than a server that ingested at
// leisure.
func TestIngestSoakReplay(t *testing.T) {
	const appends = 24
	cfg := mixConfig()
	mkServer := func() *urbane.Server {
		f := buildFramework(t, gpu.New(), false)
		f.EnableIncremental(1800, 0, 0)
		return urbane.NewServer(f, urbane.WithCache(8<<20), urbane.WithTimeSnap(1800))
	}
	// Warm the geoblocks hierarchy for every data set on both servers
	// before any ingest. A patched pyramid and a rebuilt one agree only to
	// float tolerance (merge order differs), so the byte-identical claim
	// needs both servers to start from the same built base and then apply
	// the identical patch sequence — exactly what ReplayAppends feeds.
	warm := func(h http.Handler) {
		for _, ds := range cfg.Datasets {
			body := fmt.Sprintf(`{"dataset":%q,"ring":[[100,100],[900,100],[900,900],[100,900]],"agg":"count"}`, ds)
			req := httptest.NewRequest(http.MethodPost, "/api/polygon", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("warm polygon %s: status %d: %s", ds, rec.Code, rec.Body)
			}
		}
	}

	soaked := mkServer()
	warm(soaked)
	rep := chaos.Soak(context.Background(), soaked, chaos.Config{
		VUs: 6, Requests: 15, Seed: 21, Appends: appends, Mix: cfg,
	})
	t.Logf("ingest soak: %s", rep)
	for _, v := range rep.Violations {
		t.Errorf("contract violation: %s", v)
	}
	if rep.ByKind["append"] != appends {
		t.Fatalf("writer issued %d appends, want %d", rep.ByKind["append"], appends)
	}

	pristine := mkServer()
	warm(pristine)
	for i, r := range chaos.ReplayAppends(pristine, cfg, 21, appends) {
		if r.Status != 200 {
			t.Fatalf("pristine append %d: status %d: %s", i, r.Status, r.Body)
		}
		// The warmed hierarchy must patch, not fall back: a fallback would
		// fork the pyramid's float state away from the soaked server's.
		if !bytes.Contains(r.Body, []byte(`"geoBlocksPatched":true`)) {
			t.Errorf("pristine append %d did not patch the hierarchy: %s", i, r.Body)
		}
	}

	const replayN = 80
	got := chaos.Replay(soaked, cfg, 4242, replayN)
	want := chaos.Replay(pristine, cfg, 4242, replayN)
	for i := range got {
		if got[i].Status != want[i].Status {
			t.Errorf("replay %d (%s %s): status %d vs pristine %d",
				i, got[i].Kind, got[i].Path, got[i].Status, want[i].Status)
			continue
		}
		if !bytes.Equal(got[i].Body, want[i].Body) {
			t.Errorf("replay %d (%s %s): body diverged after concurrent ingest (%d vs %d bytes)",
				i, got[i].Kind, got[i].Path, len(got[i].Body), len(want[i].Body))
		}
	}
}

// TestReplayDeterministic: the same seed against the same server yields
// byte-identical results — the precondition for the cross-server
// comparison in TestChaosSoak to mean anything.
func TestReplayDeterministic(t *testing.T) {
	srv := urbane.NewServer(buildFramework(t, gpu.New(), true), urbane.WithCache(8<<20))
	a := chaos.Replay(srv, mixConfig(), 5, 40)
	b := chaos.Replay(srv, mixConfig(), 5, 40)
	for i := range a {
		if a[i].Status != b[i].Status || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("replay %d (%s) not deterministic", i, a[i].Kind)
		}
	}
}

// TestOversizeBodyHonorsContract: a request body past the server's size
// bound is one of the contract's statuses — 413 with the standard envelope
// — not a hang, a 500, or an unbounded read.
func TestOversizeBodyHonorsContract(t *testing.T) {
	srv := urbane.NewServer(buildFramework(t, gpu.New(), false))
	body := `{"dataset":"` + strings.Repeat("x", 9<<20) + `"}`
	req := httptest.NewRequest(http.MethodPost, "/api/mapview", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %.200s", rec.Code, rec.Body)
	}
	if err := chaos.ValidateResponse(req.Method, req.URL.Path, rec.Code, rec.Header(), rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// get issues one GET and returns the recorder.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// admission reads the admission block of the server's /api/stats.
func admission(t *testing.T, h http.Handler) admit.Stats {
	t.Helper()
	var st struct {
		Admission admit.Stats `json:"admission"`
	}
	if err := json.Unmarshal(get(h, "/api/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Admission
}

// post issues one JSON POST and returns the recorder.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestMixedDatasetEpochIsolation pins per-dataset epoch isolation on a
// server holding two datasets: an append to one dataset invalidates only
// that dataset's cached responses — the sibling's stay warm. Reads and
// appends interleaved over both datasets are TestIngestSoakReplay's soak.
func TestMixedDatasetEpochIsolation(t *testing.T) {
	srv := urbane.NewServer(buildFramework(t, gpu.New(), false), urbane.WithCache(8<<20))

	// Two cacheable probes, one per dataset, with ad-hoc filters so they
	// take the raster path.
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
		t.Fatalf("taxi probe not warm: %q", got)
	}

	// Append to taxi only: taxi misses (fresh epoch), 311 hits.
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
}
