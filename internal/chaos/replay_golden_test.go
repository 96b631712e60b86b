package chaos_test

// Committed replay digests: the standard NYC server (the catalog
// cmd/urbane-server builds) replays the deterministic workload mix under a
// set of serving configurations, and each configuration's response bodies
// hash to a SHA-256 digest pinned in testdata/replay_digests.golden. A
// change that must not alter what the server serves — a refactor, a
// deleted engine seam — has to reproduce every digest unchanged. The same
// replay against a cache-off server must give the same bytes, so the
// digests also pin cache transparency. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/chaos -run TestReplayDigests.
//
// Size: 100 k taxi points (plus 25 k 311 and 12.5 k photos) and 3 seeds ×
// digestRequests requests, replayed twice on the cached server (cold, then
// warm from the response cache) and once on the uncached one, at 1024 px.
// The protocol this follows replayed 300 requests per seed; the count is
// shrunk to keep `go test ./internal/chaos` under 10 s. The 64-px texture
// device runs a 256-px canvas, tiled 4 × 4: at 1024 px its 256 tiles per
// request would cost as much as every other configuration together.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geoblocks"
	"repro/internal/gpu"
	"repro/internal/tcache"
	"repro/internal/urbane"
	"repro/internal/workload"
)

const (
	digestPoints   = 100_000
	digestRequests = 12
)

var digestSeeds = []int64{1, 2, 3}

// serveConfig is one serving configuration of the digest table: the
// server flag or Go option it mirrors is named in each field's comment.
type serveConfig struct {
	name    string
	res     int   // -resolution (0 = 1024)
	snap    int64 // -time-snap (1 = off); > 1 also enables incremental slabs
	engines bool  // -cube and -geoblocks
	approx  bool  // -accurate=false
	batch   int   // core.WithPointBatch; the joiner then also runs on one worker
	texture int   // the device's max texture side (0 = default)
	appends int   // appends issued before the replay
}

var serveConfigs = []serveConfig{
	{name: "snap900", snap: 900},
	{name: "snap900-engines", snap: 900, engines: true},
	{name: "snap1800", snap: 1800},
	{name: "snap1800-engines", snap: 1800, engines: true},
	{name: "snap3600", snap: 3600},
	{name: "snap3600-engines", snap: 3600, engines: true},
	{name: "approximate", snap: 1, approx: true},
	{name: "batch64-workers1", snap: 1, batch: 64},
	{name: "texture64", res: 256, snap: 1, texture: 64},
	{name: "appends30", snap: 1800, engines: true, appends: 30},
}

var (
	nycOnce  sync.Once
	nycScene *workload.Scene
	nycAux   []*data.PointSet

	devMu   sync.Mutex
	devices = map[int]*gpu.Device{}
)

// nycCatalog generates the standard scene once; point sets are immutable
// after registration, so every framework can share them.
func nycCatalog() (*workload.Scene, []*data.PointSet) {
	nycOnce.Do(func() {
		const seed = 2009
		nycScene = workload.NYC(digestPoints, seed)
		nycAux = []*data.PointSet{
			data.Generate(data.NYC311Config(digestPoints/4, 2009, time.January, seed+10)),
			data.Generate(data.NYCPhotosConfig(digestPoints/8, 2009, time.January, seed+20)),
		}
	})
	return nycScene, nycAux
}

// device returns the shared device with the given max texture side (0 =
// default). Servers share devices so each layer is compiled once per
// transform, not once per server: the region span cache is keyed by layer
// and transform, and its hits are byte-identical to a fresh compile.
func device(texture int) *gpu.Device {
	devMu.Lock()
	defer devMu.Unlock()
	d, ok := devices[texture]
	if !ok {
		var opts []gpu.Option
		if texture > 0 {
			opts = append(opts, gpu.WithMaxTextureSize(texture))
		}
		d = gpu.New(opts...)
		devices[texture] = d
	}
	return d
}

// nycServer builds the server cmd/urbane-server runs for cfg, with the
// response cache on or off.
func nycServer(t *testing.T, cfg serveConfig, cache bool) *urbane.Server {
	t.Helper()
	scene, aux := nycCatalog()
	mode := core.Accurate
	if cfg.approx {
		mode = core.Approximate
	}
	res := cfg.res
	if res == 0 {
		res = 1024
	}
	rjOpts := []core.RJOption{core.WithDevice(device(cfg.texture)),
		core.WithMode(mode), core.WithResolution(res)}
	if cfg.batch > 0 {
		rjOpts = append(rjOpts, core.WithPointBatch(cfg.batch), core.WithWorkers(1))
	}
	f := urbane.New(core.NewRasterJoin(rjOpts...))
	for _, err := range []error{
		f.AddPointSet(scene.Taxi),
		f.AddPointSet(aux[0]),
		f.AddPointSet(aux[1]),
		f.AddRegionSet(scene.Neighborhoods),
		f.AddRegionSet(scene.Tracts),
		f.AddRegionSet(scene.Grid),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if cfg.engines {
		f.EnableGeoBlocks(geoblocks.DefaultMaxLevel)
	}
	if cfg.snap > 1 {
		f.EnableIncremental(cfg.snap, tcache.DefaultCacheBytes, tcache.DefaultMaxSlabs)
	}
	if cfg.engines {
		if _, err := f.BuildCube("taxi", "neighborhoods", 86400, []string{"fare"}); err != nil {
			t.Fatal(err)
		}
	}
	var cacheBytes int64
	if cache {
		cacheBytes = urbane.DefaultCacheBytes
	}
	return urbane.NewServer(f, urbane.WithCache(cacheBytes), urbane.WithTimeSnap(cfg.snap))
}

// appendConfig is the mix config with every data set's full attribute
// schema, which the ingest endpoint requires.
func appendConfig() workload.MixConfig {
	cfg := workload.ServerMixConfig()
	cfg.Attrs = map[string][]string{
		"taxi":   {"fare", "distance", "passengers", "dropoff_x", "dropoff_y"},
		"311":    {"severity"},
		"photos": {"likes"},
	}
	return cfg
}

// replayAll issues the configuration's appends, then replays every seed
// passes times, and returns the responses in order.
func replayAll(t *testing.T, srv *urbane.Server, cfg serveConfig, passes int) [][]chaos.Result {
	t.Helper()
	appends := chaos.ReplayAppends(srv, appendConfig(), 99, cfg.appends)
	for i, r := range appends {
		if r.Status != 200 {
			t.Fatalf("%s: append %d: status %d: %s", cfg.name, i, r.Status, r.Body)
		}
	}
	out := [][]chaos.Result{appends}
	for _, seed := range digestSeeds {
		for pass := 0; pass < passes; pass++ {
			out = append(out, chaos.Replay(srv, workload.ServerMixConfig(), seed, digestRequests))
		}
	}
	return out
}

// digestOf hashes every response's kind, path, status and body.
func digestOf(runs [][]chaos.Result) string {
	h := sha256.New()
	for _, rs := range runs {
		for _, r := range rs {
			fmt.Fprintf(h, "%s %s %d %d\n", r.Kind, r.Path, r.Status, len(r.Body))
			h.Write(r.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requireSameResponses fails unless the cached replay equals the uncached
// one response by response.
func requireSameResponses(t *testing.T, label string, cached, uncached []chaos.Result) {
	t.Helper()
	for i := range cached {
		if cached[i].Status != uncached[i].Status || !bytes.Equal(cached[i].Body, uncached[i].Body) {
			t.Fatalf("%s: response %d (%s %s): cache on %d with %d bytes, cache off %d with %d bytes",
				label, i, cached[i].Kind, cached[i].Path, cached[i].Status, len(cached[i].Body),
				uncached[i].Status, len(uncached[i].Body))
		}
	}
}

// TestReplayDigests replays every serving configuration against a cached
// server, cold and then warm, and once against an uncached one: both
// cached passes must equal the uncached pass byte for byte, and the cached
// responses' digest must match the committed one.
func TestReplayDigests(t *testing.T) {
	nycCatalog()
	var mu sync.Mutex
	got := make(map[string]string, len(serveConfigs))
	t.Run("configs", func(t *testing.T) {
		for _, cfg := range serveConfigs {
			t.Run(cfg.name, func(t *testing.T) {
				t.Parallel()
				on := replayAll(t, nycServer(t, cfg, true), cfg, 2)
				off := replayAll(t, nycServer(t, cfg, false), cfg, 1)
				for s := range digestSeeds {
					want := off[1+s]
					for pass := 0; pass < 2; pass++ {
						requireSameResponses(t, fmt.Sprintf("seed %d pass %d", digestSeeds[s], pass),
							on[1+2*s+pass], want)
					}
				}
				mu.Lock()
				got[cfg.name] = digestOf(on)
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s %s\n", name, got[name])
	}

	golden := filepath.Join("testdata", "replay_digests.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (UPDATE_GOLDEN=1 to generate): %v", err)
	}
	if sb.String() != string(want) {
		t.Errorf("replay digests changed (UPDATE_GOLDEN=1 to accept):\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}
