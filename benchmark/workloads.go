package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"

	"repro/internal/workload"
)

// workloadDef is one closed-loop traffic pattern against one server
// configuration. Clients never exceed nproc; the generator is this process.
type workloadDef struct {
	Name    string
	Why     string // one line, copied into BENCHMARK.json
	Clients int
	// Warmup is the untimed prefix per client: it pages in pools, compiles
	// each layer's spans once and lets lazy indexes build, costs a user
	// pays once per session rather than per gesture.
	Warmup  int
	Server  func(points int) serverConfig
	Streams func(seed int64) []stream
}

const (
	slab6h = 6 * 3600
	// segCacheBytes is 16 MiB against ~60 MiB of taxi columns at 1 M
	// points: the working set of a full scan does not fit.
	segCacheBytes = 16 << 20
)

// pinned is the GOMAXPROCS of a server that leaves one CPU to the load
// generator: 1 on the 2-vCPU hosts this runs on. The single-client workloads
// run that way because it is what makes their numbers repeatable there: the
// second vCPU is not reliably available (two busy threads take anywhere
// from 1x to 2x one thread's time), and a server fanning small parallel
// sections across it turns that into spread. Measured per workload, ten
// seeds, the two settings alternating run by run in a noisy hour (spread =
// IQR / median of p50, p95, throughput; the bound is 25 %):
//
//	               every CPU (2)        pinned (1)
//	cold_adhoc     16 % 20 % 16 %       16 % 15 % 13 %
//	segment_scan   33 % 29 % 27 %       17 % 17 % 18 %
//	session_mix    28 % 28 % 23 %       23 % 17 % 19 %
//	ingest_slide   22 % 32 % 22 %       12 % 30 % 17 %
//
// session_mix is not pinned all the same. Its two clients then share the one
// P, a 5 ms tile takes 5 or 25 ms depending on what the other client's
// request happens to be, and the median lands wherever the interleaving put
// it: 41-57 ms over five runs of one seed, a spread of 26 % over ten seeds in
// a quiet hour, when on two Ps it is 8 % (p95 6 %, throughput 6 %).
//
// A pinned server cannot show a parallel speed-up, so cold_adhoc — where the
// two settings spread alike — also runs unpinned, as cold_adhoc_allcpu.
var pinned = max(1, runtime.NumCPU()-1)

var workloads = []workloadDef{
	{
		Name:    "cold_adhoc",
		Why:     "distinct filtered mapviews, every cache misses: point pass, span replay and boundary refine do the work",
		Clients: 1, Warmup: 8,
		Server:  func(points int) serverConfig { return serverConfig{Points: points, Procs: pinned} },
		Streams: func(seed int64) []stream { return []stream{newAdhocStream(seed)} },
	},
	{
		Name:    "cold_adhoc_allcpu",
		Why:     "cold_adhoc's exact request sequence with the server on every CPU: where intra-query parallelism shows as latency",
		Clients: 1, Warmup: 8,
		Server:  func(points int) serverConfig { return serverConfig{Points: points} },
		Streams: func(seed int64) []stream { return []stream{newAdhocStream(seed)} },
	},
	{
		Name:    "segment_scan",
		Why:     "cold_adhoc's exact request sequence on segment files with a 16 MiB block cache: isolates the storage layer",
		Clients: 1, Warmup: 8,
		Server: func(points int) serverConfig {
			return serverConfig{Points: points, Segments: true, SegCacheBytes: segCacheBytes, Procs: pinned}
		},
		Streams: func(seed int64) []stream { return []stream{newAdhocStream(seed)} },
	},
	{
		Name:    "session_mix",
		Why:     "2 analysts replay the 11-family interactive mix with cube, geoblocks and slabs on: every cache and routing layer is in play",
		Clients: 2, Warmup: 10,
		Server: func(points int) serverConfig {
			return serverConfig{Points: points, Cube: true, GeoBlocks: true, TimeSnap: 3600}
		},
		Streams: func(seed int64) []stream {
			return []stream{newMixStream(seed, 0), newMixStream(seed, 1)}
		},
	},
	{
		Name:    "ingest_slide",
		Why:     "a time slider interleaved with appends: every append stales qcache keys, migrates slabs and patches the pyramid",
		Clients: 1, Warmup: 2 * ingestCycle,
		Server: func(points int) serverConfig {
			return serverConfig{Points: points, GeoBlocks: true, TimeSnap: slab6h, Procs: pinned}
		},
		Streams: func(seed int64) []stream { return []stream{newIngestSlideStream(seed)} },
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

var (
	layers = []string{"neighborhoods", "tracts", "grid64"}
	aggs   = []struct{ agg, attr string }{{"count", ""}, {"sum", "fare"}, {"avg", "fare"}}
)

// Irrational steps of the additive low-discrepancy sequences below: any
// prefix of frac(u + i*step) covers [0,1) evenly, so a run's latency
// distribution barely depends on how many requests fit in it or on the
// seed, while every seed still yields different requests.
const (
	golden = 0.6180339887498949 // 1/phi
	sqrt2m = 0.4142135623730951 // sqrt(2)-1
)

func frac(x float64) float64 { return x - math.Floor(x) }

// jitter is all a seed changes in the read streams. The schedule of
// families, data sets, layers, aggregates, window widths and filter widths
// — everything that sets a request's cost — is the workload's definition
// and the same for every seed; the seed slides every time window by a
// number of hours, nudges every filter bound and moves every polygon, so
// no two seeds send the same requests yet all of them send the same work.
// (With independently drawn parameters the spread between seeds was 49 %
// on session_mix's p95: it measured which deltas a seed happened to draw.)
type jitter struct {
	shift  int64   // seconds, a whole number of hours within a week
	eps    float64 // added to filter bounds, < 0.001
	dx, dy float64 // polygon centre offset as a share of the extent, within 2 %
}

func newJitter(seed int64) jitter {
	rng := rand.New(rand.NewSource(seed))
	return jitter{shift: int64(rng.Intn(7*24)) * 3600, eps: rng.Float64() / 1000,
		dx: 0.04*rng.Float64() - 0.02, dy: 0.04*rng.Float64() - 0.02}
}

// slide moves a window start by the seed's shift, wrapping inside
// [min, max-width]; step is the grid the start must stay on.
func (j jitter) slide(start, width, min, max, step int64) int64 {
	room := (max-min-width)/step*step + step
	return min + (start-min+j.shift)%room
}

func mapviewBody(dataset, layer, agg, attr, filterAttr string, lo, hi float64, start, end int64) string {
	return fmt.Sprintf(`{"dataset":%q,"layer":%q,"agg":%q,"attr":%q,"filters":[{"attr":%q,"min":%g,"max":%g}],"time":{"start":%d,"end":%d}}`,
		dataset, layer, agg, attr, filterAttr, lo, hi, start, end)
}

// adhocStream is the sequence cold_adhoc, cold_adhoc_allcpu and segment_scan
// share: three wide requests then one narrow, layers and aggregates cycling,
// selectivity and window position walking low-discrepancy sequences. Every request carries
// a filter bound and a window no other request has, so the query cache can
// never answer.
//
// Narrow requests select under 1 % of the points, alternately by time — a
// 1-4 h window with a sliver of the fare range, which a time-sorted source
// answers by narrowing the scan range — and by value: a wide window with a
// $2 sliver of the fare tail above $100, where only the per-block zone maps
// (block maxima run from $99 to $139) can spare a scan from reading every
// block. The second kind is what makes segment.blocks_pruned move.
type adhocStream struct {
	jit          jitter
	i, wide, nar int
	kept         map[string]int
}

// The oracle sample: brute force is O(points in the window x regions), so
// it takes hour-wide requests on any layer and month-wide ones on the
// 260-region layer only.
var oracleSample = map[string]int{"adhoc.wide": 3, "adhoc.narrow": 9}

func newAdhocStream(seed int64) *adhocStream {
	return &adhocStream{jit: newJitter(seed), kept: map[string]int{}}
}

// window places a window covering share f of January at the k-th position
// of the design, slid by the seed.
func (s *adhocStream) window(f float64, k int) (start, end int64) {
	jan := workload.Jan2009()
	span := float64(jan.End - jan.Start)
	width := int64(f * span)
	start = s.jit.slide(jan.Start+int64(frac(float64(k)*sqrt2m)*(span-float64(width))), width, jan.Start, jan.End, 1)
	return start, start + width
}

func (s *adhocStream) next() request {
	narrow := s.i%4 == 3
	s.i++
	var r request
	cheapOracle := false
	if narrow {
		n := s.nar
		s.nar++
		layer, ag := layers[n%3], aggs[(n/3)%3]
		var lo, hi float64
		var start, end int64
		if n%2 == 0 {
			jan := workload.Jan2009()
			start, end = s.window(float64(1+n/2%4)*3600/float64(jan.End-jan.Start), n)
			lo = 4 + 30*frac(float64(n)*sqrt2m) + s.jit.eps
			hi = lo + 0.25 + frac(float64(n)*golden)
			cheapOracle = true
		} else {
			start, end = s.window(0.4+0.6*frac(float64(n)*golden), n)
			lo = 100 + 25*frac(float64(n)*sqrt2m) + s.jit.eps
			hi = lo + 2
			cheapOracle = layer == "neighborhoods"
		}
		r = request{Method: http.MethodPost, Path: "/api/mapview", Family: "adhoc.narrow",
			Body: mapviewBody("taxi", layer, ag.agg, ag.attr, "fare", lo, hi, start, end)}
	} else {
		w := s.wide
		s.wide++
		layer, ag := layers[w%3], aggs[(w/3)%3]
		start, end := s.window(0.4+0.6*frac(float64(w)*golden), w)
		r = request{Method: http.MethodPost, Path: "/api/mapview", Family: "adhoc.wide",
			Body: mapviewBody("taxi", layer, ag.agg, ag.attr, "fare", 0, 1000+float64(w)+s.jit.eps, start, end)}
		cheapOracle = layer == "neighborhoods"
	}
	if cheapOracle && s.kept[r.Family] < oracleSample[r.Family] {
		s.kept[r.Family]++
		r.Keep = true
	}
	return r
}

func (s *adhocStream) done(request, int, []byte) {}

// stableKinds are the mix families served through the query cache: with no
// appends in the run, equal requests must get equal bytes.
var stableKinds = map[string]bool{
	"mapview": true, "filterheavy": true, "query": true, "heatmap": true,
	"delta": true, "tile": true, "polygon": true, "choropleth": true,
}

// mixWeights are workload.Mix's family shares in percent.
var mixWeights = []struct {
	kind string
	w    int
}{
	{"mapview", 26}, {"query", 12}, {"filterheavy", 8}, {"heatmap", 10}, {"delta", 8}, {"explore", 8},
	{"tile", 9}, {"polygon", 7}, {"choropleth", 6}, {"stats", 3}, {"cachestats", 3},
}

// mixStream is the repo's 11-family interactive mix (workload.Mix: same
// endpoints, shares, parameter ranges and body shapes) with chance taken
// out of its cost profile. The mix's costs span three orders of magnitude
// — a delta whose two windows both fold slab by slab is ~500 ms, a tile
// 5 ms — so with workload.NewMix's independent draws the 95th percentile
// of a 400-request run measures mostly which deltas the seed happened to
// draw. Here the family order follows a smooth weighted round-robin over
// the mix's shares, and every parameter of the i-th request of a family
// walks an additive low-discrepancy sequence in its own dimension: any
// prefix of the stream holds the same proportions of families, data sets,
// layers, window widths and filters. The seed enters through jitter only.
type mixStream struct {
	cfg    workload.MixConfig
	jit    jitter
	off    [mixDims]float64
	credit []int
	count  map[string]int
}

// mixDims is the most parameters one family draws; steps are the
// fractional parts of the square roots of the first primes, pairwise
// incommensurable, so the joint sequence fills the unit cube evenly.
const mixDims = 15

var mixSteps = [mixDims]float64{
	sqrt2m, 0.7320508075688772, 0.2360679774997898, 0.6457513110645907,
	0.3166247903553998, 0.605551275463989, 0.1231056256176606, 0.358898943540674,
	0.7958315233127191, 0.385164807134504, 0.5677643628300215, 0.08276253029821934,
	0.4031242374328485, 0.5574385243020004, 0.8556546004010443,
}

func newMixStream(seed int64, client int) *mixStream {
	s := &mixStream{cfg: workload.ServerMixConfig(), jit: newJitter(seed),
		credit: make([]int, len(mixWeights)), count: map[string]int{}}
	for d := range s.off { // each client walks its own part of the parameter space
		s.off[d] = frac(0.137 + 0.618*float64(client) + 0.271*float64(d))
	}
	for i := 37 * client; i > 0; i-- { // and enters the family cycle at its own point
		s.turn()
	}
	return s
}

// turn picks the next family: every family earns its weight, the richest
// goes and pays the total (nginx's smooth weighted round-robin).
func (s *mixStream) turn() string {
	best := 0
	for i, mw := range mixWeights {
		s.credit[i] += mw.w
		if s.credit[i] > s.credit[best] {
			best = i
		}
	}
	s.credit[best] -= 100
	return mixWeights[best].kind
}

// draw is one request's parameter source: u(d) is dimension d's value in
// [0,1) for this request.
type draw struct {
	s *mixStream
	i int
}

func (d draw) u(dim int) float64      { return frac(d.s.off[dim] + float64(d.i)*mixSteps[dim]) }
func (d draw) n(dim, n int) int       { return int(d.u(dim) * float64(n)) }
func (d draw) dataset(dim int) string { return d.s.cfg.Datasets[d.n(dim, len(d.s.cfg.Datasets))] }
func (d draw) layer(dim int) string   { return d.s.cfg.Layers[d.n(dim, len(d.s.cfg.Layers))] }

// agg mirrors Mix.agg: COUNT three times in five, else AVG or SUM of one of
// the data set's attributes.
func (d draw) agg(dim int, ds string) (string, string) {
	a := []string{"count", "count", "count", "avg", "sum"}[d.n(dim, 5)]
	attrs := d.s.cfg.Attrs[ds]
	if a == "count" || len(attrs) == 0 {
		return "count", ""
	}
	return a, attrs[d.n(dim+1, len(attrs))]
}

// window mirrors Mix.window: an hour-snapped window of 1..186 hours.
func (d draw) window(dim int) (int64, int64) {
	span := d.s.cfg.TimeMax - d.s.cfg.TimeMin
	width := int64(1+d.n(dim, int(span/(4*3600)))) * 3600
	start := d.s.cfg.TimeMin + int64(d.u(dim+1)*float64(span-width))/3600*3600
	start = d.s.jit.slide(start, width, d.s.cfg.TimeMin, d.s.cfg.TimeMax, 3600)
	return start, start + width
}

func (d draw) timeJSON(dim int, p float64) string {
	if d.u(dim) >= p {
		return ""
	}
	s, e := d.window(dim + 1)
	return fmt.Sprintf(`,"time":{"start":%d,"end":%d}`, s, e)
}

func (d draw) filterJSON(dim int, ds string, p float64) string {
	attrs := d.s.cfg.Attrs[ds]
	if len(attrs) == 0 || d.u(dim) >= p {
		return ""
	}
	lo := float64(d.n(dim+1, 10)) + d.s.jit.eps
	return fmt.Sprintf(`,"filters":[{"attr":%q,"min":%g,"max":%g}]`,
		attrs[d.n(dim+2, len(attrs))], lo, lo+5+float64(d.n(dim+3, 40)))
}

func (s *mixStream) next() request {
	kind := s.turn()
	d := draw{s, s.count[kind]}
	s.count[kind]++
	post := func(path, body string) request {
		return request{Method: http.MethodPost, Path: path, Body: body, Family: kind, Stable: stableKinds[kind]}
	}
	get := func(path string) request {
		return request{Method: http.MethodGet, Path: path, Family: kind, Stable: stableKinds[kind]}
	}
	ds := d.dataset(0)
	switch kind {
	case "mapview":
		agg, attr := d.agg(2, ds)
		return post("/api/mapview", fmt.Sprintf(`{"dataset":%q,"layer":%q,"agg":%q,"attr":%q%s%s}`,
			ds, d.layer(1), agg, attr, d.filterJSON(4, ds, 0.5), d.timeJSON(8, 0.6)))
	case "query":
		agg, attr := d.agg(2, ds)
		sel := "COUNT(*)"
		if attr != "" {
			sel = fmt.Sprintf("%s(%s)", strings.ToUpper(agg), attr)
		}
		return post("/api/query", fmt.Sprintf(`{"stmt":%q}`,
			fmt.Sprintf("SELECT %s FROM %s, %s GROUP BY id", sel, ds, d.layer(1))))
	case "filterheavy":
		agg, attr := d.agg(2, ds)
		width := int64(1+d.n(4, 4)) * 3600
		start := s.cfg.TimeMin + int64(d.u(5)*float64(s.cfg.TimeMax-s.cfg.TimeMin-width))/3600*3600
		start = s.jit.slide(start, width, s.cfg.TimeMin, s.cfg.TimeMax, 3600)
		filter := ""
		if attrs := s.cfg.Attrs[ds]; len(attrs) > 0 {
			lo := float64(d.n(7, 40)) + d.u(8) + s.jit.eps
			filter = fmt.Sprintf(`,"filters":[{"attr":%q,"min":%g,"max":%g}]`, attrs[d.n(6, len(attrs))], lo, lo+0.25+d.u(9))
		}
		return post("/api/mapview", fmt.Sprintf(`{"dataset":%q,"layer":%q,"agg":%q,"attr":%q%s,"time":{"start":%d,"end":%d}}`,
			ds, d.layer(1), agg, attr, filter, start, start+width))
	case "heatmap":
		size := 64 << d.n(1, 3)
		return post("/api/heatmap", fmt.Sprintf(`{"dataset":%q,"w":%d,"h":%d%s%s}`,
			ds, size, size, d.filterJSON(4, ds, 0.3), d.timeJSON(8, 0.5)))
	case "delta":
		agg, attr := d.agg(2, ds)
		aS, aE := d.window(8)
		bS, bE := d.window(10)
		if bS == aS && bE == aE { // the server rejects identical delta windows
			bE += 3600
		}
		return post("/api/delta", fmt.Sprintf(`{"dataset":%q,"layer":%q,"agg":%q,"attr":%q,"a":{"start":%d,"end":%d},"b":{"start":%d,"end":%d}%s}`,
			ds, d.layer(1), agg, attr, aS, aE, bS, bE, d.filterJSON(4, ds, 0.3)))
	case "explore":
		ids := make([]string, 1+d.n(2, 3))
		for i := range ids {
			ids[i] = fmt.Sprint(d.n(3+i, s.cfg.Regions))
		}
		st, en := d.window(8)
		return post("/api/explore", fmt.Sprintf(`{"datasets":[%q],"layer":%q,"agg":"count","regionIds":[%s],"start":%d,"end":%d,"bins":%d}`,
			ds, d.layer(1), strings.Join(ids, ","), st, en, 4+d.n(7, 8)))
	case "tile":
		z := 10 + d.n(1, 3)
		x := 301<<(z-10) + d.n(2, 1<<(z-9))
		y := 385<<(z-10) + d.n(3, 1<<(z-9))
		return get(fmt.Sprintf("/api/tile/%d/%d/%d.png?dataset=%s", z, x, y, ds))
	case "polygon":
		agg, attr := d.agg(2, ds)
		b := s.cfg.Bounds
		w, h := b[2]-b[0], b[3]-b[1]
		cx, cy := b[0]+(0.17+0.66*d.u(1)+s.jit.dx)*w, b[1]+(0.17+0.66*d.u(4)+s.jit.dy)*h
		outer := (0.02 + 0.18*d.u(5)) * math.Min(w, h)
		inner := outer * (0.35 + 0.4*d.u(6))
		return post("/api/polygon", fmt.Sprintf(`{"dataset":%q,"ring":[%s],"agg":%q,"attr":%q%s%s}`,
			ds, starRing(cx, cy, outer, inner, 5+d.n(7, 4)), agg, attr, d.filterJSON(11, ds, 0.2), d.timeJSON(8, 0.2)))
	case "choropleth":
		agg, attr := d.agg(2, ds)
		return get(fmt.Sprintf("/api/render/choropleth.png?dataset=%s&layer=%s&agg=%s&attr=%s&w=%d",
			ds, d.layer(1), agg, attr, 128<<d.n(4, 2)))
	default:
		return get("/api/" + kind)
	}
}

// starRing renders a star with n points (2n vertices) as a JSON ring.
func starRing(cx, cy, outer, inner float64, n int) string {
	var sb strings.Builder
	for i := 0; i < 2*n; i++ {
		rad := outer
		if i%2 == 1 {
			rad = inner
		}
		theta := math.Pi * float64(i) / float64(n)
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%g,%g]", cx+rad*math.Cos(theta), cy+rad*math.Sin(theta))
	}
	return sb.String()
}

func (s *mixStream) done(request, int, []byte) {}

// ingestSlideStream is ingest_slide's one client: eight slider steps, then
// an append, a polygon over the pyramid the append just patched, and one of
// 8 fixed mapviews on 311 — a feed delivering a batch about twice a second
// into an analyst's slider session.
//
// The slider is an 8-slab window over taxi x neighborhoods advancing one
// 6 h slab per request, cycling COUNT/SUM/AVG. When the window reaches the
// end of January the analyst changes the fare filter and drags again, so
// each pass folds slabs no earlier pass cached and the reuse ratio stays
// what one slide gives, however long the run. 311 is never appended to, so
// its replies must stay cache hits and byte-stable.
//
// The issue asked for the appender as a second, racing client. Measured:
// racing unpaced it appends ~55 times a second, every append re-stamps the
// data set, slabs a fold computes after that are keyed to a snapshot no
// later request asks for, and the slider degenerates into cold folds
// (reuse ratio 0.10, slide p50 150 ms). Paced at 2 appends a second, the
// share of folds an append lands in feeds back on how long folds take, and
// p50 ranged 32-62 ms between runs of one commit (spread 23 %, p95 36 %).
// Interleaved in one closed loop, the same invalidation, slab migration and
// pyramid patching happen in the same order every run.
type ingestSlideStream struct {
	jit  jitter
	app  *workload.Appender
	seq  int
	pos  int // slider position in slabs
	pass int
	// The oracle sample: kept counts replies retained per family; before
	// maps a kept polygon's body to how many appended points preceded it.
	kept     map[string]int
	before   map[string]int
	appended []appendedPoint
}

const (
	sliderSlabs = 8
	ingestCycle = 11 // 8 slides, append, polygon, 311 mapview
	warm311     = 8  // the fixed 311 mapviews that must stay cache hits
	// The oracle re-answers 12 slider replies and 12 polygon replies spread
	// over the run: ~300 slides and ~37 polygons fit in 12 s.
	oracleKeep   = 12
	slideEvery   = 16
	polygonEvery = 2
)

// appendedPoint is one ingested taxi point the polygon oracle must count.
type appendedPoint struct{ X, Y, Fare float64 }

func newIngestSlideStream(seed int64) *ingestSlideStream {
	cfg := workload.ServerMixConfig()
	cfg.Datasets = []string{"taxi"}
	// The ingest endpoint wants the full schema, dropoff columns included.
	cfg.Attrs = map[string][]string{"taxi": {"fare", "distance", "passengers", "dropoff_x", "dropoff_y"}}
	return &ingestSlideStream{jit: newJitter(seed), app: workload.NewAppender(cfg, seed),
		kept: map[string]int{}, before: map[string]int{}}
}

// keep marks every n-th request of a family for the oracle.
func (s *ingestSlideStream) keep(r *request, i, every int) {
	if i%every == 0 && s.kept[r.Family] < oracleKeep {
		s.kept[r.Family]++
		r.Keep = true
	}
}

func (s *ingestSlideStream) next() request {
	round, step := s.seq/ingestCycle, s.seq%ingestCycle
	s.seq++
	switch {
	case step < ingestCycle-3:
		jan := workload.Jan2009()
		if s.pos+sliderSlabs > int((jan.End-jan.Start)/slab6h) {
			s.pos = 0
			s.pass++
		}
		i := round*(ingestCycle-3) + step
		start := jan.Start + int64(s.pos)*slab6h
		s.pos++
		ag := aggs[i%3]
		r := request{Method: http.MethodPost, Path: "/api/mapview", Family: "slide",
			Body: mapviewBody("taxi", "neighborhoods", ag.agg, ag.attr, "fare",
				0, 60+float64(s.pass)+1000*s.jit.eps, start, start+sliderSlabs*slab6h)}
		s.keep(&r, i, slideEvery)
		return r
	case step == ingestCycle-3:
		hr := s.app.Next()
		return request{Method: hr.Method, Path: hr.Path, Body: hr.Body, Family: "append"}
	case step == ingestCycle-2:
		ag := aggs[round%3]
		r := request{Method: http.MethodPost, Path: "/api/polygon", Family: "polygon",
			Body: fmt.Sprintf(`{"dataset":"taxi","ring":[%s],"agg":%q,"attr":%q}`, s.ring(round), ag.agg, ag.attr)}
		s.keep(&r, round, polygonEvery)
		if r.Keep {
			s.before[r.Body] = len(s.appended)
		}
		return r
	default:
		j := round % warm311 // layer and aggregate from different digits: 8 distinct bodies
		ag := []struct{ agg, attr string }{{"count", ""}, {"avg", "severity"}, {"sum", "severity"}}[j/3]
		return request{Method: http.MethodPost, Path: "/api/mapview", Family: "mapview", Stable: true,
			Body: fmt.Sprintf(`{"dataset":"311","layer":%q,"agg":%q,"attr":%q}`, layers[j%3], ag.agg, ag.attr)}
	}
}

// ring draws the i-th 16-vertex star inside NYC, never the same twice.
func (s *ingestSlideStream) ring(i int) string {
	b := workload.ServerMixConfig().Bounds
	w, h := b[2]-b[0], b[3]-b[1]
	cx := b[0] + (0.22+0.56*frac(float64(i)*golden)+s.jit.dx)*w
	cy := b[1] + (0.22+0.56*frac(float64(i)*sqrt2m)+s.jit.dy)*h
	outer := (0.04 + 0.12*frac(float64(i)*mixSteps[1])) * math.Min(w, h)
	return starRing(cx, cy, outer, outer*(0.4+0.3*frac(float64(i)*mixSteps[2])), 8)
}

// done records what an accepted append added, for the polygon oracle.
func (s *ingestSlideStream) done(req request, status int, _ []byte) {
	if req.Family != "append" || status != http.StatusOK {
		return
	}
	var wire struct {
		X, Y  []float64
		Attrs map[string][]float64
	}
	if err := json.Unmarshal([]byte(req.Body), &wire); err != nil {
		return
	}
	for i := range wire.X {
		s.appended = append(s.appended, appendedPoint{wire.X[i], wire.Y[i], wire.Attrs["fare"][i]})
	}
}
