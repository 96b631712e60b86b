package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// smokePoints keeps the scene small enough that all four workloads and the
// layer tier finish in a few seconds.
const smokePoints = 20_000

// smokeRequests is the measured sample per client: a count, not a duration,
// so the assertions hold under the race detector's slowdown too.
const smokeRequests = 30

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogue pins the metric and workload catalogue to the limits the
// driver enforces and to BENCHMARK.json.
func TestCatalogue(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
		if unit == "" || len(unit) > 16 {
			t.Errorf("%s %q has unit %q", kind, name, unit)
		}
	}
	for _, d := range endToEnd {
		check("end-to-end", d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer() {
		check("per-layer", d.Name, d.Unit)
	}
	for _, wl := range workloads {
		check("workload", wl.Name, "-")
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.Name || doc.Workloads[i].Why != wl.Why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the code has %s: %s", i, doc.Workloads[i], wl.Name, wl.Why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the code %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("BENCHMARK.json %s metric %d is %+v, the code has %+v", kind, i, g, d)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer())
}

// inProcess serves a workload's configuration from this process, wired as
// cmd/urbane-server wires it.
func inProcess(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	h, closeStores, err := cfg.newHandler(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); closeStores() })
	return srv
}

// TestSmoke runs all four workloads and the layer tier in-process on a
// small scene and requires every catalogued metric exactly once, every
// correctness gate green, and each workload to reach the layer it exists
// to exercise.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	rec := newRecorder()
	layers := map[string]map[string]float64{}
	digests := map[string]string{}
	for i := range workloads {
		wl := &workloads[i]
		srv := inProcess(t, wl.Server(smokePoints))
		rd := drive(ctx, wl, srv.URL, 7, smokePoints, time.Minute, smokeRequests, rec)
		rd.verify()
		attempted, failed := rd.counts()
		if attempted == 0 || failed != 0 || len(rd.problems) != 0 {
			t.Fatalf("%s: attempted %d, failed %d: %v", wl.Name, attempted, failed, rd.failures(5))
		}
		ls := rd.latency()
		if ls.p50 <= 0 || ls.p95 < ls.p50 || ls.throughput <= 0 || ls.interactiveShare <= 0 {
			t.Errorf("%s: implausible latency stats %+v", wl.Name, ls)
		}
		lm := rd.layerMetrics()
		for _, d := range passLayerMetrics() {
			if _, ok := lm[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", wl.Name, d.Name)
			}
		}
		layers[wl.Name], digests[wl.Name] = lm, rd.digest()
	}

	if err := sameDigest(digests); err != nil {
		t.Error(err)
	}
	neverCached := func(m map[string]float64) bool { return m["qcache.hit_ratio"] == 0 && m["urbane.adhoc.wide.n"] > 0 }
	for name, want := range map[string]func(m map[string]float64) bool{
		"cold_adhoc":        neverCached,
		"cold_adhoc_allcpu": neverCached,
		"segment_scan": func(m map[string]float64) bool {
			return m["segment.blocks_pruned"] > 0 && m["segment.cache_hit_ratio"] > 0
		},
		"session_mix":  func(m map[string]float64) bool { return m["qcache.hit_ratio"] > 0 },
		"ingest_slide": func(m map[string]float64) bool { return m["tcache.reuse_ratio"] > 0.5 && m["urbane.append.n"] > 0 },
	} {
		if !want(layers[name]) {
			t.Errorf("%s does not exercise its layer: %v", name, layers[name])
		}
	}

	tier, rows, err := layerTier(ctx, smokePoints, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Error("no latency budget rows")
	}
	all := map[string]float64{}
	for k, v := range tier {
		all[k] = v
	}
	for k, v := range layers["session_mix"] {
		all[k] = v
	}
	if _, missing := pick(perLayer(), all); len(missing) > 0 {
		t.Errorf("per-layer metrics not emitted: %v", missing)
	}
	if len(all) != len(perLayer()) {
		t.Errorf("%d per-layer metrics emitted, catalogue has %d", len(all), len(perLayer()))
	}

	path := t.TempDir() + "/spans.jsonl"
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(rec.spans)
	for _, name := range []string{"server", "adhoc.wide", "slide", "core.join_wide", tierRoot} {
		if _, ok := self[name]; !ok {
			t.Errorf("no span named %q recorded", name)
		}
	}
}

// TestSubprocessIdentity proves the in-process wiring the smoke test and the
// oracle rely on is the server's: the real binary and newHandler return
// byte-identical bodies for the same requests.
func TestSubprocessIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real server")
	}
	dir := t.TempDir()
	bin, err := buildServer(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{Points: smokePoints, GeoBlocks: true, TimeSnap: 3600}
	proc, err := startServer(bin, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local := inProcess(t, cfg)

	var reqs []request
	adhoc, mix := newAdhocStream(3), newMixStream(3, 0)
	for len(reqs) < 4 {
		reqs = append(reqs, adhoc.next())
	}
	for len(reqs) < 10 {
		if r := mix.next(); r.Stable {
			reqs = append(reqs, r)
		}
	}
	fetch := func(base string, r request) []byte {
		hr, err := http.NewRequest(r.Method, base+r.Path, strings.NewReader(r.Body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %v", r.Method, r.Path, resp.StatusCode, err)
		}
		return body
	}
	for _, r := range reqs {
		if a, b := fetch(proc.base, r), fetch(local.URL, r); !bytes.Equal(a, b) {
			t.Errorf("%s %s %s: subprocess and in-process bodies differ", r.Method, r.Path, r.Body)
		}
	}
	if err := proc.stop(); err != nil {
		t.Error(err)
	}
}

// shapeOf reduces a JSON value to its structure: object keys (sorted by the
// decoder), the shape of an array's first element, and scalar types.
func shapeOf(v any) string {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ":" + shapeOf(x[k])
		}
		return "{" + strings.Join(parts, ",") + "}"
	case []any:
		if len(x) == 0 {
			return "[]"
		}
		return "[" + shapeOf(x[0]) + "]"
	case string:
		return "s"
	default:
		return "n"
	}
}

var digitsRE = regexp.MustCompile(`[0-9]+`)

// mixProfile is what TestMixMatchesWorkloadMix compares: per family, how
// often it is drawn, and every distinct endpoint, body structure and
// top-level string value (data set, layer, aggregate, attribute, statement)
// it was seen with.
type mixProfile struct {
	count map[string]int
	seen  map[string]map[string]bool // family -> "kind value"
}

func (p *mixProfile) add(family, method, path, body string) {
	if p.count == nil {
		p.count, p.seen = map[string]int{}, map[string]map[string]bool{}
	}
	p.count[family]++
	set := p.seen[family]
	if set == nil {
		set = map[string]bool{}
		p.seen[family] = set
	}
	route, params, _ := strings.Cut(path, "?")
	set["endpoint "+method+" "+digitsRE.ReplaceAllString(route, "#")] = true
	for _, kv := range strings.Split(params, "&") {
		if k, v, ok := strings.Cut(kv, "="); ok {
			set["param "+k+"="+v] = true
		}
	}
	if body == "" {
		return
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		set["body that is not a JSON object: "+body] = true
		return
	}
	set["shape "+shapeOf(doc)] = true
	for k, v := range doc {
		if str, ok := v.(string); ok {
			set["value "+k+"="+str] = true
		}
	}
}

// TestMixMatchesWorkloadMix pins session_mix's generator to the repo's
// interactive mix. mixStream re-draws workload.Mix's families on a fixed
// schedule (workloads.go says why); this is what keeps the two from
// drifting apart: the same families in the same shares (within sampling
// error of the reference's independent draws), and per family the same
// endpoints, body structures and categorical values.
func TestMixMatchesWorkloadMix(t *testing.T) {
	const n = 30_000
	var ref, got mixProfile
	mix := workload.NewMix(workload.ServerMixConfig(), 1)
	stream := newMixStream(1, 0)
	for i := 0; i < n; i++ {
		hr := mix.Next()
		ref.add(hr.Kind, hr.Method, hr.Path, hr.Body)
		r := stream.next()
		got.add(r.Family, r.Method, r.Path, r.Body)
	}
	for fam, c := range ref.count {
		want, have := float64(c)/n, float64(got.count[fam])/n
		if have < want-0.01 || have > want+0.01 {
			t.Errorf("family %s: share %.3f here, %.3f in workload.Mix", fam, have, want)
		}
		for what := range ref.seen[fam] {
			if !got.seen[fam][what] {
				t.Errorf("family %s: workload.Mix sends %q, mixStream never does", fam, what)
			}
		}
	}
	for fam, set := range got.seen {
		if ref.count[fam] == 0 {
			t.Errorf("family %s is not in workload.Mix", fam)
		}
		for what := range set {
			if !ref.seen[fam][what] {
				t.Errorf("family %s: mixStream sends %q, workload.Mix never does", fam, what)
			}
		}
	}
}
