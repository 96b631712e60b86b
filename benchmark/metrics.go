package main

import (
	"math"
	"sort"
)

// metricDef is one catalogue entry. The catalogue is the contract between
// this package, BENCHMARK.json and README.md: every name below is emitted
// exactly once per run of its tier, with this unit.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// interactiveLimitMs is the latency limit behind interactive_share: the
// paper's "interactive" is sub-second; half a second leaves the frontend
// its own share of the budget.
const interactiveLimitMs = 500.0

// endToEnd is what an analyst at the map would notice. fail_share is not
// listed: it is 0 on every workload by construction (a metric that is
// always 0 carries no signal for a regression gate) and travels as
// failed/attempted instead.
//
// Every time is reported at the reference host speed (calib.go): measured
// time × the run's host factor.
//
// The bounds are wider than the issue's table. A bound has to hold on the
// host's bad minutes as well as its good ones: the same code on this
// 2-vCPU VM shows spreads (IQR / median over ten runs) of 3-8 % in quiet
// phases and, after scaling, up to 12 % in loud ones (up to 30 % before it),
// and the rule of a bound three times the spread then asks for more than
// the 0.25 the contract allows. README.md has the measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"interactive_share", "share", "higher", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.2},
}

// families are the request families a workload can issue; each gets an
// urbane.<family>.p50_ms / .n pair. A family the running workload does not
// issue reports n = 0 and p50 = 0.
var families = []string{
	"adhoc.wide", "adhoc.narrow", "mapview", "filterheavy", "query", "heatmap",
	"delta", "explore", "tile", "polygon", "choropleth", "stats", "cachestats",
	"append", "slide",
}

// httpLayerMetrics come from the traced HTTP run: response headers, the
// server's /api/stats and /api/cachestats counters, and the clients' own
// clocks.
var httpLayerMetrics = []metricDef{
	{"segment.cache_hit_ratio", "ratio", "higher", 0},
	{"segment.blocks_scanned", "count", "lower", 0},
	{"segment.blocks_pruned", "count", "higher", 0},
	{"raster.span_hit_ratio", "ratio", "higher", 0},
	{"tcache.reuse_ratio", "ratio", "higher", 0},
	{"qcache.hit_ratio", "ratio", "higher", 0},
	{"qcache.coalesced", "count", "higher", 0},
	{"urbane.compute_ms", "ms", "lower", 0},
	{"urbane.wire_ms", "ms", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
}

// tierLayerMetrics come from the in-process layer tier (layers.go).
var tierLayerMetrics = []metricDef{
	{"data.generate_ms", "ms", "lower", 0},
	{"segment.write_ms", "ms", "lower", 0},
	{"segment.block_decode_us", "us", "lower", 0},
	{"segment.block_hit_us", "us", "lower", 0},
	{"segment.join_ratio", "ratio", "lower", 0},
	{"gpu.pointpass_w1_mpts_s", "Mpts/s", "higher", 0},
	{"gpu.pointpass_wN_mpts_s", "Mpts/s", "higher", 0},
	{"gpu.drawspans_ms", "ms", "lower", 0},
	{"raster.compile_tracts_ms", "ms", "lower", 0},
	{"core.join_wide_ms", "ms", "lower", 0},
	{"core.join_narrow_ms", "ms", "lower", 0},
	{"core.join_approx_ms", "ms", "lower", 0},
	{"core.refine_share", "share", "lower", 0},
	{"core.scan_share", "share", "lower", 0},
	{"shard.join_s1_ms", "ms", "lower", 0},
	{"shard.join_s2_ms", "ms", "lower", 0},
	{"shard.overhead_s1", "ratio", "lower", 0},
	{"geoblocks.build_ms", "ms", "lower", 0},
	{"geoblocks.query_warm_us", "us", "lower", 0},
	{"geoblocks.patch_ms", "ms", "lower", 0},
	{"geoblocks.fringe_points", "count", "lower", 0},
	{"tcache.slide_ms", "ms", "lower", 0},
	{"tcache.cold_fold_ms", "ms", "lower", 0},
	{"qcache.hit_us", "us", "lower", 0},
	{"qcache.key_us", "us", "lower", 0},
	{"cube.build_ms", "ms", "lower", 0},
	{"cube.query_us", "us", "lower", 0},
	{"query.parse_us", "us", "lower", 0},
	{"query.plan_us", "us", "lower", 0},
	{"render.choropleth_ms", "ms", "lower", 0},
	{"render.png_encode_ms", "ms", "lower", 0},
	{"budget.total_ms", "ms", "lower", 0},
	{"budget.unattributed_share", "share", "lower", 0},
}

// passLayerMetrics is what one traced pass of a workload reports: the
// HTTP-side metrics and a p50/n pair per request family.
func passLayerMetrics() []metricDef {
	out := append([]metricDef(nil), httpLayerMetrics...)
	for _, f := range families {
		out = append(out,
			metricDef{"urbane." + f + ".p50_ms", "ms", "lower", 0},
			metricDef{"urbane." + f + ".n", "count", "higher", 0})
	}
	return out
}

// perLayer is the full per-layer catalogue, in print order.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), tierLayerMetrics...), passLayerMetrics()...)
}

// value is one reported number; the JSON shape is the driver's.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output in single-workload mode.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pick copies the catalogue's metrics out of vals, attaching units. A
// metric the run did not produce is a bug, reported by name.
func pick(defs []metricDef, vals map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// ratio is a/(a+b), 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
