package workload

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"

	"repro/internal/mercator"
)

// HTTPRequest is one generated API call of a workload mix: everything the
// load generator or the chaos harness needs to issue it.
type HTTPRequest struct {
	Method string
	Path   string
	Body   string // JSON for POSTs, empty for GETs
	// Kind labels the request family ("mapview", "query", "tile", ...) for
	// per-kind reporting.
	Kind string
}

// MixConfig names the catalog a Mix draws requests against. The defaults
// must match what the target server registered, or the mix degenerates to
// 400s.
type MixConfig struct {
	// Datasets are point-set names to aggregate ("taxi", "311"...).
	Datasets []string
	// Layers are region-set names to aggregate over.
	Layers []string
	// Attrs maps each dataset to its numeric attributes usable for
	// SUM/AVG and range filters. Datasets absent from the map only get
	// COUNT queries.
	Attrs map[string][]string
	// TimeMin/TimeMax bound the generated time-filter windows (unix secs).
	TimeMin, TimeMax int64
	// Regions is the max region id usable in explore requests.
	Regions int
	// Bounds is the world extent {MinX, MinY, MaxX, MaxY} the polygon
	// family draws ad-hoc rings inside. Zero (MaxX <= MinX) defaults to
	// NYC's Web-Mercator bounds, matching ServerMixConfig.
	Bounds [4]float64
}

// ServerMixConfig is the mix matching cmd/urbane-server's standard NYC
// workload: taxi + 311 + photos over neighborhoods/tracts/grid64, January
// 2009.
func ServerMixConfig() MixConfig {
	jan := Jan2009()
	return MixConfig{
		Datasets: []string{"taxi", "311", "photos"},
		Layers:   []string{"neighborhoods", "tracts", "grid64"},
		Attrs: map[string][]string{
			"taxi":   {"fare", "distance", "passengers"},
			"311":    {"severity"},
			"photos": {"likes"},
		},
		TimeMin: jan.Start,
		TimeMax: jan.End,
		Regions: NeighborhoodCount,
		Bounds:  mercatorNYC(),
	}
}

// mercatorNYC returns NYC's extent as the 4-float Bounds form.
func mercatorNYC() [4]float64 {
	b := mercator.NYCBounds()
	return [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY}
}

// Mix is a deterministic stream of API requests mimicking interactive
// exploration: choropleth map views under filter and time-slider churn,
// SQL-ish queries, heatmaps, deltas, time-series explorations, slippy
// tiles, and the occasional PNG render and stats poll. Two Mixes built
// with the same config and seed yield the identical request sequence —
// the replay primitive the chaos suite's byte-identical assertions use.
// Not safe for concurrent use; give each virtual user its own Mix.
type Mix struct {
	cfg MixConfig
	rng *rand.Rand
}

// NewMix returns a deterministic request stream.
func NewMix(cfg MixConfig, seed int64) *Mix {
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = []string{"taxi"}
	}
	if len(cfg.Layers) == 0 {
		cfg.Layers = []string{"neighborhoods"}
	}
	if cfg.TimeMax <= cfg.TimeMin {
		cfg.TimeMax = cfg.TimeMin + 30*86400
	}
	if cfg.Regions < 4 {
		cfg.Regions = 4
	}
	if cfg.Bounds[2] <= cfg.Bounds[0] || cfg.Bounds[3] <= cfg.Bounds[1] {
		cfg.Bounds = mercatorNYC()
	}
	return &Mix{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// pick returns a uniform element of xs.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// window draws a random snapped sub-window of the configured time range,
// mimicking a time-slider drag.
func (m *Mix) window() (int64, int64) {
	span := m.cfg.TimeMax - m.cfg.TimeMin
	const snap = 3600 // sliders move in hour steps
	width := (1 + m.rng.Int63n(span/(4*snap))) * snap
	start := m.cfg.TimeMin + m.rng.Int63n(span-width)/snap*snap
	return start, start + width
}

// timeJSON renders an optional time filter (p probability of having one).
func (m *Mix) timeJSON(p float64) string {
	if m.rng.Float64() >= p {
		return ""
	}
	s, e := m.window()
	return fmt.Sprintf(`,"time":{"start":%d,"end":%d}`, s, e)
}

// filterJSON renders an optional range filter over one of dataset's
// attributes.
func (m *Mix) filterJSON(dataset string, p float64) string {
	attrs := m.cfg.Attrs[dataset]
	if len(attrs) == 0 || m.rng.Float64() >= p {
		return ""
	}
	attr := pick(m.rng, attrs)
	lo := float64(m.rng.Intn(10))
	hi := lo + 5 + float64(m.rng.Intn(40))
	return fmt.Sprintf(`,"filters":[{"attr":%q,"min":%g,"max":%g}]`, attr, lo, hi)
}

// agg draws an aggregate and (when it needs one) an attribute valid for
// dataset.
func (m *Mix) agg(dataset string) (string, string) {
	aggs := []string{"count", "count", "count", "avg", "sum"}
	a := pick(m.rng, aggs)
	attrs := m.cfg.Attrs[dataset]
	if a == "count" || len(attrs) == 0 {
		return "count", ""
	}
	return a, pick(m.rng, attrs)
}

// Next generates the following request of the stream.
func (m *Mix) Next() HTTPRequest {
	// Weighted families, mirroring what an interactive session issues:
	// the map view dominates, sliders re-issue queries, tiles stream in.
	switch r := m.rng.Float64(); {
	case r < 0.26:
		return m.mapview()
	case r < 0.38:
		return m.query()
	case r < 0.46:
		return m.filterHeavy()
	case r < 0.56:
		return m.heatmap()
	case r < 0.64:
		return m.delta()
	case r < 0.72:
		return m.explore()
	case r < 0.81:
		return m.tile()
	case r < 0.88:
		return m.polygon()
	case r < 0.94:
		return m.choropleth()
	case r < 0.97:
		return HTTPRequest{Method: http.MethodGet, Path: "/api/stats", Kind: "stats"}
	default:
		return HTTPRequest{Method: http.MethodGet, Path: "/api/cachestats", Kind: "cachestats"}
	}
}

func (m *Mix) mapview() HTTPRequest {
	ds := pick(m.rng, m.cfg.Datasets)
	agg, attr := m.agg(ds)
	body := fmt.Sprintf(`{"dataset":%q,"layer":%q,"agg":%q,"attr":%q%s%s}`,
		ds, pick(m.rng, m.cfg.Layers), agg, attr,
		m.filterJSON(ds, 0.5), m.timeJSON(0.6))
	return HTTPRequest{Method: http.MethodPost, Path: "/api/mapview", Body: body, Kind: "mapview"}
}

// filterHeavy mimics a drilled-down exploration step: a choropleth under a
// sliver of an attribute range and an hours-wide time window, selecting a
// small fraction of the data. On a segment-backed catalog these requests
// zone-prune nearly every block, so the family keeps the pruning and
// residual-predicate paths hot under soak and chaos load.
func (m *Mix) filterHeavy() HTTPRequest {
	ds := pick(m.rng, m.cfg.Datasets)
	agg, attr := m.agg(ds)
	span := m.cfg.TimeMax - m.cfg.TimeMin
	width := int64(1+m.rng.Intn(4)) * 3600
	if width > span {
		width = span
	}
	start := m.cfg.TimeMin + m.rng.Int63n(span-width+1)/3600*3600
	timeJSON := fmt.Sprintf(`,"time":{"start":%d,"end":%d}`, start, start+width)
	filterJSON := ""
	if attrs := m.cfg.Attrs[ds]; len(attrs) > 0 {
		fa := pick(m.rng, attrs)
		lo := float64(m.rng.Intn(40)) + m.rng.Float64()
		hi := lo + 0.25 + m.rng.Float64()
		filterJSON = fmt.Sprintf(`,"filters":[{"attr":%q,"min":%g,"max":%g}]`, fa, lo, hi)
	}
	body := fmt.Sprintf(`{"dataset":%q,"layer":%q,"agg":%q,"attr":%q%s%s}`,
		ds, pick(m.rng, m.cfg.Layers), agg, attr, filterJSON, timeJSON)
	return HTTPRequest{Method: http.MethodPost, Path: "/api/mapview", Body: body, Kind: "filterheavy"}
}

func (m *Mix) query() HTTPRequest {
	ds := pick(m.rng, m.cfg.Datasets)
	agg, attr := m.agg(ds)
	sel := "COUNT(*)"
	if attr != "" {
		sel = fmt.Sprintf("%s(%s)", strings.ToUpper(agg), attr)
	}
	stmt := fmt.Sprintf("SELECT %s FROM %s, %s GROUP BY id",
		sel, ds, pick(m.rng, m.cfg.Layers))
	body := fmt.Sprintf(`{"stmt":%q}`, stmt)
	return HTTPRequest{Method: http.MethodPost, Path: "/api/query", Body: body, Kind: "query"}
}

func (m *Mix) heatmap() HTTPRequest {
	ds := pick(m.rng, m.cfg.Datasets)
	size := 64 << m.rng.Intn(3) // 64..256
	body := fmt.Sprintf(`{"dataset":%q,"w":%d,"h":%d%s%s}`,
		ds, size, size, m.filterJSON(ds, 0.3), m.timeJSON(0.5))
	return HTTPRequest{Method: http.MethodPost, Path: "/api/heatmap", Body: body, Kind: "heatmap"}
}

func (m *Mix) delta() HTTPRequest {
	ds := pick(m.rng, m.cfg.Datasets)
	agg, attr := m.agg(ds)
	aS, aE := m.window()
	bS, bE := m.window()
	if bS == aS && bE == aE { // the server rejects identical delta windows
		bE += 3600
	}
	body := fmt.Sprintf(`{"dataset":%q,"layer":%q,"agg":%q,"attr":%q,"a":{"start":%d,"end":%d},"b":{"start":%d,"end":%d}%s}`,
		ds, pick(m.rng, m.cfg.Layers), agg, attr,
		aS, aE, bS, bE, m.filterJSON(ds, 0.3))
	return HTTPRequest{Method: http.MethodPost, Path: "/api/delta", Body: body, Kind: "delta"}
}

// polygon draws an ad-hoc user polygon — a jittered star ring inside the
// configured bounds — and aggregates one data set over it, mimicking the
// paper's draw-a-region interaction. Rings are always valid (≥10 finite
// vertices, nonzero area) so a clean server answers 200. Most requests are
// unfiltered (the geoblocks hierarchy's home turf); a minority carry a
// filter or time window and take the raster fallback.
func (m *Mix) polygon() HTTPRequest {
	ds := pick(m.rng, m.cfg.Datasets)
	agg, attr := m.agg(ds)
	b := m.cfg.Bounds
	w, h := b[2]-b[0], b[3]-b[1]
	cx := b[0] + (0.15+0.7*m.rng.Float64())*w
	cy := b[1] + (0.15+0.7*m.rng.Float64())*h
	outer := (0.02 + 0.18*m.rng.Float64()) * math.Min(w, h)
	inner := outer * (0.35 + 0.4*m.rng.Float64())
	n := 5 + m.rng.Intn(4) // 10..16 vertices
	var sb strings.Builder
	for i := 0; i < 2*n; i++ {
		theta := math.Pi * float64(i) / float64(n)
		rad := outer
		if i%2 == 1 {
			rad = inner
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%g,%g]", cx+rad*math.Cos(theta), cy+rad*math.Sin(theta))
	}
	body := fmt.Sprintf(`{"dataset":%q,"ring":[%s],"agg":%q,"attr":%q%s%s}`,
		ds, sb.String(), agg, attr, m.filterJSON(ds, 0.2), m.timeJSON(0.2))
	return HTTPRequest{Method: http.MethodPost, Path: "/api/polygon", Body: body, Kind: "polygon"}
}

func (m *Mix) explore() HTTPRequest {
	n := 1 + m.rng.Intn(3)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprint(m.rng.Intn(m.cfg.Regions))
	}
	s, e := m.window()
	body := fmt.Sprintf(`{"datasets":[%q],"layer":%q,"agg":"count","regionIds":[%s],"start":%d,"end":%d,"bins":%d}`,
		pick(m.rng, m.cfg.Datasets), pick(m.rng, m.cfg.Layers),
		strings.Join(ids, ","), s, e, 4+m.rng.Intn(8))
	return HTTPRequest{Method: http.MethodPost, Path: "/api/explore", Body: body, Kind: "explore"}
}

func (m *Mix) tile() HTTPRequest {
	z := 10 + m.rng.Intn(3)
	// NYC-ish slippy addresses at zoom z (the server clamps rendering to
	// its data bounds; out-of-extent tiles are just empty, still valid).
	x := 301<<(z-10) + m.rng.Intn(1<<(z-9))
	y := 385<<(z-10) + m.rng.Intn(1<<(z-9))
	return HTTPRequest{Method: http.MethodGet, Kind: "tile",
		Path: fmt.Sprintf("/api/tile/%d/%d/%d.png?dataset=%s", z, x, y, pick(m.rng, m.cfg.Datasets))}
}

func (m *Mix) choropleth() HTTPRequest {
	ds := pick(m.rng, m.cfg.Datasets)
	agg, attr := m.agg(ds)
	return HTTPRequest{Method: http.MethodGet, Kind: "choropleth",
		Path: fmt.Sprintf("/api/render/choropleth.png?dataset=%s&layer=%s&agg=%s&attr=%s&w=%d",
			ds, pick(m.rng, m.cfg.Layers), agg, attr, 128<<m.rng.Intn(2))}
}
