package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// setupBoots is how many times a run starts the server: setup_s is the
// median, the last start serves the workload.
const setupBoots = 3

// digestPrefix is how many of client 0's replies (warm-up included) the
// response digest covers: cold_adhoc and segment_scan issue the identical
// sequence, so their digests must be equal. A fixed prefix keeps the
// digest comparable between runs that complete different request counts.
const digestPrefix = 32

// serverStats is the slice of /api/stats and /api/cachestats the per-layer
// metrics and the hygiene checks read. The servers are fresh, so absolute
// counters are deltas over the run.
type serverStats struct {
	LiveCanvases int64 `json:"liveCanvases"`
	LiveTextures int64 `json:"liveTextures"`
	Segments     struct {
		BlocksScanned int64 `json:"blocksScanned"`
		BlocksPruned  int64 `json:"blocksPruned"`
		Cache         struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	} `json:"segments"`
	Incremental struct {
		SlabsReused     uint64 `json:"slabsReused"`
		SlabsRecomputed uint64 `json:"slabsRecomputed"`
	} `json:"incremental"`
	Cache struct { // /api/cachestats
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
	} `json:"-"`
}

func getJSON(base, path string, dst any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func fetchStats(base string) (serverStats, error) {
	var st serverStats
	if err := getJSON(base, "/api/stats", &st); err != nil {
		return st, err
	}
	err := getJSON(base, "/api/cachestats", &st.Cache)
	return st, err
}

// runData is everything one pass of a workload produced.
type runData struct {
	wl      *workloadDef
	points  int
	streams []stream
	clients []clientRun
	wall    time.Duration
	// calib is every client's host-speed kernel times over the measured
	// window; thinking is the window time one client spent in the kernel,
	// averaged over clients. See calib.go.
	calib    []float64
	thinking time.Duration
	stats    serverStats
	// problems lists every violated gate: failed requests are counted per
	// sample, the rest (hygiene, oracle, digest) land here.
	problems []string
}

// drive runs the workload's clients against a live server and collects the
// server's counters. It is the part shared by the subprocess runs and the
// in-process smoke test.
func drive(ctx context.Context, wl *workloadDef, base string, seed int64, points int, dur time.Duration, limit int, rec *recorder) *runData {
	rd := &runData{wl: wl, points: points, streams: wl.Streams(seed)}
	rd.clients, rd.wall = runClients(ctx, base, rd.streams, wl.Warmup, dur, limit, rec, wl.Name)
	for c := range rd.clients {
		rd.calib = append(rd.calib, rd.clients[c].calib.ms...)
		rd.thinking += rd.clients[c].calib.spent / time.Duration(len(rd.clients))
	}
	st, err := fetchStats(base)
	if err != nil {
		rd.problems = append(rd.problems, "reading server stats: "+err.Error())
	}
	rd.stats = st
	if st.LiveCanvases != 0 || st.LiveTextures != 0 {
		rd.problems = append(rd.problems, fmt.Sprintf("idle server holds render resources: canvases=%d textures=%d",
			st.LiveCanvases, st.LiveTextures))
	}
	return rd
}

// measured returns every measured sample of every client.
func (rd *runData) measured() []*sample {
	var out []*sample
	for c := range rd.clients {
		for i := range rd.clients[c].measured {
			out = append(out, &rd.clients[c].measured[i])
		}
	}
	return out
}

// all returns warm-up and measured samples of one client in issue order.
func (rd *runData) all(client int) []*sample {
	var out []*sample
	cr := &rd.clients[client]
	for i := range cr.warm {
		out = append(out, &cr.warm[i])
	}
	for i := range cr.measured {
		out = append(out, &cr.measured[i])
	}
	return out
}

// kept returns the replies retained for the oracle, warm-up included.
func (rd *runData) kept(client int, family string) []*sample {
	var out []*sample
	for _, s := range rd.all(client) {
		if s.Req.Keep && s.Req.Family == family && s.Fail == "" {
			out = append(out, s)
		}
	}
	return out
}

// digest is the SHA-256 over client 0's first digestPrefix reply bodies
// in issue order ("" when the run was too short to reach the prefix).
func (rd *runData) digest() string {
	all := rd.all(0)
	if len(all) < digestPrefix {
		return ""
	}
	h := sha256.New()
	for _, s := range all[:digestPrefix] {
		h.Write(s.Sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verify runs the workload's correctness gates after the clock has stopped
// and the server is gone. A violated gate marks the offending sample failed
// where there is one, so it counts in failed/attempted.
func (rd *runData) verify() {
	// Equal stable requests must have produced equal bytes.
	seen := map[string]*sample{}
	for c := range rd.clients {
		for _, s := range rd.all(c) {
			if !s.Req.Stable || s.Fail != "" || s.Status != http.StatusOK {
				continue
			}
			if first, ok := seen[s.Req.key()]; ok && first.Sum != s.Sum {
				s.Fail = fmt.Sprintf("reply differs from the reply to the same request at %d/%d", first.Client, first.Seq)
			} else if !ok {
				seen[s.Req.key()] = s
			}
		}
	}
	fail := func(s *sample, err error) { s.Fail = "oracle: " + err.Error() }
	switch rd.wl.Name {
	case "cold_adhoc", "cold_adhoc_allcpu":
		or := newOracle(rd.points)
		for _, fam := range []string{"adhoc.wide", "adhoc.narrow"} {
			for _, s := range rd.kept(0, fam) {
				if err := or.checkMapview(s.Req.Body, s.Body); err != nil {
					fail(s, err)
				}
			}
		}
	case "segment_scan":
		kept := append(rd.kept(0, "adhoc.wide"), rd.kept(0, "adhoc.narrow")...)
		if err := replayInRAM(rd.points, kept); err != nil {
			rd.problems = append(rd.problems, err.Error())
		}
	case "ingest_slide":
		or := newOracle(rd.points)
		for _, s := range rd.kept(0, "slide") {
			if err := or.checkMapview(s.Req.Body, s.Body); err != nil {
				fail(s, err)
			}
		}
		// Epoch isolation: taxi appends must leave 311's cache entries warm.
		asked := map[string]bool{}
		for _, s := range rd.all(0) {
			if s.Req.Family != "mapview" || s.Fail != "" {
				continue
			}
			if asked[s.Req.Body] && s.Cache != "hit" {
				s.Fail = fmt.Sprintf("repeated 311 mapview was a cache %q: a taxi append cost 311 its entry", s.Cache)
			}
			asked[s.Req.Body] = true
		}
		st := rd.streams[0].(*ingestSlideStream)
		for _, s := range rd.kept(0, "polygon") {
			if err := or.checkPolygon(s.Req.Body, s.Body, st.appended[:st.before[s.Req.Body]]); err != nil {
				fail(s, err)
			}
		}
	}
}

// counts returns attempted and failed over the measured window.
func (rd *runData) counts() (attempted, failed int) {
	for _, s := range rd.measured() {
		attempted++
		if s.Fail != "" {
			failed++
		}
	}
	return attempted, failed
}

// failures describes up to n failed samples (warm-up included) and every
// violated gate, for the human report.
func (rd *runData) failures(n int) []string {
	out := append([]string(nil), rd.problems...)
	for c := range rd.clients {
		for _, s := range rd.all(c) {
			if s.Fail != "" && n > 0 {
				out = append(out, fmt.Sprintf("%s %d/%d %s: %s", s.Req.Family, s.Client, s.Seq, s.Req.Path, s.Fail))
				n--
			}
		}
	}
	return out
}

// latencyStats are the client-observed numbers of the measured window, at
// the reference host speed: times are the measured ones × factor. rawP50 is
// the median as the clock read it.
type latencyStats struct {
	n                int
	factor           float64
	p50, p95, rawP50 float64
	throughput       float64
	interactiveShare float64
}

// latency summarizes the measured samples.
func (rd *runData) latency() latencyStats {
	ms := rd.measured()
	f := hostFactor(rd.calib)
	var lat []float64
	correct, interactive := 0, 0
	for _, s := range ms {
		lat = append(lat, s.latencyMs()*f)
		if s.Fail == "" {
			correct++
			if s.latencyMs()*f <= interactiveLimitMs {
				interactive++
			}
		}
	}
	sort.Float64s(lat)
	ls := latencyStats{n: len(ms), factor: f, p50: percentile(lat, 0.5), p95: percentile(lat, 0.95)}
	ls.rawP50 = ls.p50 / f
	if len(ms) > 0 {
		// The kernel runs are think time the workload does not have.
		ls.throughput = float64(correct) / ((rd.wall - rd.thinking).Seconds() * f)
		ls.interactiveShare = float64(interactive) / float64(len(ms))
	}
	return ls
}

// layerMetrics derives the HTTP-side per-layer metrics of one traced run.
func (rd *runData) layerMetrics() map[string]float64 {
	out := map[string]float64{}
	byFamily := map[string][]float64{}
	var compute, wire []float64
	var spanHits, spanMisses int64
	var recording time.Duration
	for c := range rd.clients {
		recording += rd.clients[c].recording
	}
	// Spans are recorded between a reply's end and the client's next send:
	// the share of the clients' measured time that took is the throughput
	// the traced pass gives up; measured latencies cannot contain it.
	out["trace.overhead_share"] = recording.Seconds() / (rd.wall.Seconds() * float64(len(rd.clients)))
	// Times are reported at the reference host speed, like the end-to-end
	// ones they decompose.
	f := hostFactor(rd.calib)
	out["host.calib_ms"] = calibMs(rd.calib)
	for _, s := range rd.measured() {
		byFamily[s.Req.Family] = append(byFamily[s.Req.Family], s.latencyMs()*f)
		if s.Status == 0 {
			continue
		}
		compute = append(compute, s.ComputeMs*f)
		wire = append(wire, (s.latencyMs()-s.ComputeMs)*f)
		_, counters := parseTrace(s.Trace)
		spanHits += counters["span_cache_hits"]
		spanMisses += counters["span_cache_misses"]
	}
	for _, f := range families {
		out["urbane."+f+".p50_ms"] = median(byFamily[f])
		out["urbane."+f+".n"] = float64(len(byFamily[f]))
	}
	st := rd.stats
	out["urbane.compute_ms"] = median(compute)
	out["urbane.wire_ms"] = median(wire)
	out["raster.span_hit_ratio"] = ratio(float64(spanHits), float64(spanMisses))
	out["segment.blocks_scanned"] = float64(st.Segments.BlocksScanned)
	out["segment.blocks_pruned"] = float64(st.Segments.BlocksPruned)
	out["segment.cache_hit_ratio"] = ratio(float64(st.Segments.Cache.Hits), float64(st.Segments.Cache.Misses))
	out["tcache.reuse_ratio"] = ratio(float64(st.Incremental.SlabsReused), float64(st.Incremental.SlabsRecomputed))
	out["qcache.hit_ratio"] = ratio(float64(st.Cache.Hits), float64(st.Cache.Misses))
	out["qcache.coalesced"] = float64(st.Cache.Coalesced)
	return out
}
