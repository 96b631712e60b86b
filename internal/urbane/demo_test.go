package urbane

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/mercator"
	"repro/internal/workload"
)

// The demo scenario tests drive the paper's three demonstration scenarios
// through the HTTP API, as the frontend does: every interaction is one
// request to a compute route of NewServer, and every answer is checked
// against index.BruteForce. Each interaction also asserts how it was served:
// the engine (the body's algorithm, or /api/query's routing reason, and the
// engine's entries on X-Urbane-Trace) and the X-Urbane-Cache outcome.
//
//	go test -run '^TestDemo' -v ./internal/urbane

// day is the slab width and time snap of the slider scenario.
const day = 86400

// engineMarks are the X-Urbane-Trace entries that tell the engines apart.
var engineMarks = []string{"tcache.fold", "geoblocks.plan", "tiles", "batches"}

// engineTrace lists, per engine, the engineMarks a compute on it leaves on
// the trace, in engineMarks order. A cube lookup leaves none, as does a
// request that computed nothing (a hit, or a PNG of another view's entry).
var engineTrace = map[string][]string{
	"":          nil,
	"cube":      nil,
	"raster":    {"tiles", "batches"},
	"slabs":     {"tcache.fold"},                     // every slab partial cached
	"slabs+run": {"tcache.fold", "tiles", "batches"}, // missing slabs run as one series join
	"geoblocks": {"geoblocks.plan"},
	"pointpass": {"batches"}, // the heatmap and flow joins: no polygon tile loop
}

// expect is what one interaction must show besides its answer.
type expect struct {
	cache  string // X-Urbane-Cache outcome
	engine string // key of engineTrace
	algo   string // the body's algorithm, when checked
	reason string // /api/query's routing reason, when checked
	cross  bool   // served from a selection entry another view computed
}

// demo is one scenario's server, driven over HTTP.
type demo struct {
	t *testing.T
	s *Server
}

// newDemo serves a framework of the given point sets and layers on the
// accurate raster join, whose counts match index.BruteForce exactly.
func newDemo(t *testing.T, points []*data.PointSet, layers []*data.RegionSet, setup func(f *Framework), opts ...ServerOption) *demo {
	t.Helper()
	f := New(core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(512)))
	for _, ps := range points {
		if err := f.AddPointSet(ps); err != nil {
			t.Fatal(err)
		}
	}
	for _, rs := range layers {
		if err := f.AddRegionSet(rs); err != nil {
			t.Fatal(err)
		}
	}
	if setup != nil {
		setup(f)
	}
	return &demo{t: t, s: NewServer(f, opts...)}
}

// do runs one interaction: the request must reach a compute route and
// answer 200 as want says. The body is decoded into dst (a *[]byte takes the
// raw bytes); the trace entries are returned by name.
func (d *demo) do(method, path, body string, want expect, dst any) map[string]string {
	d.t.Helper()
	route, _, _ := strings.Cut(path, "?")
	if _, ok := d.s.computeRoutes()[endpointName(route)]; !ok {
		d.t.Fatalf("%s is not a compute route", path)
	}
	rec := doRaw(d.t, d.s, bg, method, path, body, nil)
	if rec.Code != http.StatusOK {
		d.t.Fatalf("%s %.80s: status %d: %s", path, body, rec.Code, rec.Body)
	}
	h := rec.Header()
	if got := h.Get(cacheOutcomeHeader); got != want.cache {
		d.t.Errorf("%s %.80s: X-Urbane-Cache %q, want %q", path, body, got, want.cache)
	}
	tr := map[string]string{}
	for _, entry := range strings.Split(h.Get(traceHeader), ";") {
		name, val, _ := strings.Cut(entry, "=")
		tr[name] = val
	}
	var ran []string
	for _, m := range engineMarks {
		if _, ok := tr[m]; ok {
			ran = append(ran, m)
		}
	}
	if !slices.Equal(ran, engineTrace[want.engine]) {
		d.t.Errorf("%s %.80s: trace %q shows %v, want %q's %v",
			path, body, h.Get(traceHeader), ran, want.engine, engineTrace[want.engine])
	}
	if _, cross := tr["qcache.cross_view"]; cross != want.cross {
		d.t.Errorf("%s %.80s: cross-view %v, want %v", path, body, cross, want.cross)
	}
	if want.algo != "" || want.reason != "" {
		var meta struct{ Algorithm, Reason string }
		if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
			d.t.Fatal(err)
		}
		if want.algo != "" && meta.Algorithm != want.algo {
			d.t.Errorf("%s %.80s: algorithm %q, want %q", path, body, meta.Algorithm, want.algo)
		}
		if want.reason != "" && meta.Reason != want.reason {
			d.t.Errorf("%s %.80s: reason %q, want %q", path, body, meta.Reason, want.reason)
		}
	}
	switch dst := dst.(type) {
	case nil:
	case *[]byte:
		*dst = rec.Body.Bytes()
	default:
		if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
			d.t.Fatal(err)
		}
	}
	return tr
}

// exact is the reference answer: index.BruteForce tests every point of the
// request against every region.
func exact(t *testing.T, req core.Request) *core.Result {
	t.Helper()
	res, err := (&index.BruteForce{}).JoinContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// agrees compares an answer with the reference: counts, MIN and MAX
// exactly; SUM and AVG within 1e-6 relative, as the two sum in different
// orders.
func agrees(got, want float64, agg core.Agg) bool {
	if agg == core.Sum || agg == core.Avg {
		return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
	}
	return got == want
}

// checkValues compares a view's per-region values with the reference.
func checkValues(t *testing.T, what string, got []RegionValue, ref *core.Result, agg core.Agg) {
	t.Helper()
	if len(got) != len(ref.Stats) {
		t.Fatalf("%s: %d values for %d regions", what, len(got), len(ref.Stats))
	}
	for k, v := range got {
		if want := ref.Value(k, agg); !agrees(v.Value, want, agg) {
			t.Fatalf("%s: region %d = %v, index.BruteForce %v", what, v.ID, v.Value, want)
		}
	}
}

// taxiScene is workload.NYC's taxi data and neighborhood layer, without the
// tract layer no scenario reads.
func taxiScene(seed int64) (*data.PointSet, *data.RegionSet) {
	return data.Generate(data.NYCTaxiConfig(20_000, 2009, time.January, seed)), workload.Neighborhoods(seed + 1)
}

func windowJSON(w *core.TimeFilter) string {
	return fmt.Sprintf(`{"start":%d,"end":%d}`, w.Start, w.End)
}

// TestDemoMapViewSlider is the paper's Figure-1 scenario: taxi pickups per
// NYC neighborhood in January 2009, the time slider dragged week by week, a
// week-over-week delta, an ad-hoc fare filter, Urbane's grid view, the
// density heatmap and the rendered choropleth. Day slabs are on, so the
// month's first query computes every day once and each slider step folds
// seven cached days.
func TestDemoMapViewSlider(t *testing.T) {
	taxi, nbhd := taxiScene(2009)
	grid := data.GridRegions("grid64", mercator.NYCBounds(), 64, 64)
	d := newDemo(t, []*data.PointSet{taxi}, []*data.RegionSet{nbhd, grid},
		func(f *Framework) { f.EnableIncremental(day, 0, 0) }, WithTimeSnap(day))
	raster := d.s.f.rasterJoiner().Name()
	jan, week2, week3 := workload.Jan2009(), workload.JanWeek(1), workload.JanWeek(2)
	ref := func(rs *data.RegionSet, agg core.Agg, attr string, win *core.TimeFilter, filters ...core.Filter) *core.Result {
		return exact(t, core.Request{Points: taxi, Regions: rs, Agg: agg, Attr: attr, Filters: filters, Time: win})
	}
	mapview := func(layer, agg, attr, rest string) string {
		return fmt.Sprintf(`{"dataset":"taxi","layer":%q,"agg":%q,"attr":%q%s}`, layer, agg, attr, rest)
	}

	// The opening view as SQL: the month's 31 day slabs run as one series.
	stmt := fmt.Sprintf(`{"stmt":"SELECT COUNT(*) FROM taxi, neighborhoods WHERE time BETWEEN %d AND %d GROUP BY id"}`,
		jan.Start, jan.End)
	var month queryResponse
	tr := d.do("POST", "/api/query", stmt,
		expect{cache: "miss", engine: "slabs+run", algo: raster, reason: routingReasons["slabs"]}, &month)
	if tr["tcache.slabs_recomputed"] != "31" {
		t.Errorf("month computed %s day slabs, want 31", tr["tcache.slabs_recomputed"])
	}
	checkValues(t, "month", month.Rows, ref(nbhd, core.Count, "", jan), core.Count)
	d.do("POST", "/api/query", stmt, expect{cache: "hit"}, nil)

	// The map view of the same selection reads the query's entry.
	var ch Choropleth
	monthView := mapview("neighborhoods", "count", "", `,"time":`+windowJSON(jan))
	d.do("POST", "/api/mapview", monthView, expect{cache: "hit", algo: raster, cross: true}, &ch)
	if !slices.Equal(ch.Values, month.Rows) {
		t.Error("the month's map view differs from its SQL rows")
	}

	// The slider, week by week: each step folds seven cached day slabs.
	var weeks [4]Choropleth
	for w := range weeks {
		win := workload.JanWeek(w)
		tr := d.do("POST", "/api/mapview", mapview("neighborhoods", "count", "", `,"time":`+windowJSON(win)),
			expect{cache: "miss", engine: "slabs", algo: raster}, &weeks[w])
		if tr["tcache.slabs_reused"] != "7" {
			t.Errorf("week %d reused %s day slabs, want 7", w+1, tr["tcache.slabs_reused"])
		}
		checkValues(t, fmt.Sprintf("week %d", w+1), weeks[w].Values, ref(nbhd, core.Count, "", win), core.Count)
	}
	// Dragging back to week 2 repeats a view.
	d.do("POST", "/api/mapview", mapview("neighborhoods", "count", "", `,"time":`+windowJSON(week2)),
		expect{cache: "hit", algo: raster}, nil)

	// Week 3 against week 2: the delta is the difference of the two views.
	var dv DeltaView
	d.do("POST", "/api/delta", mapview("neighborhoods", "count", "",
		`,"a":`+windowJSON(week2)+`,"b":`+windowJSON(week3)),
		expect{cache: "miss", engine: "slabs", algo: raster}, &dv)
	for k, v := range dv.Values {
		if want := weeks[2].Values[k].Value - weeks[1].Values[k].Value; v.Value != want {
			t.Fatalf("delta region %d = %v, week 3 - week 2 = %v", v.ID, v.Value, want)
		}
	}

	// An ad-hoc filter, premium trips in week 2: a new slab signature, so
	// the week's seven slabs run.
	premium := core.Filter{Attr: "fare", Min: 25, Max: 1e9}
	d.do("POST", "/api/mapview", mapview("neighborhoods", "count", "",
		`,"filters":[{"attr":"fare","min":25,"max":1e9}],"time":`+windowJSON(week2)),
		expect{cache: "miss", engine: "slabs+run", algo: raster}, &ch)
	checkValues(t, "premium week 2", ch.Values, ref(nbhd, core.Count, "", week2, premium), core.Count)

	// Urbane's grid view: average fare per cell in week 2.
	d.do("POST", "/api/mapview", mapview("grid64", "avg", "fare", `,"time":`+windowJSON(week2)),
		expect{cache: "miss", engine: "slabs+run", algo: raster}, &ch)
	checkValues(t, "grid AVG(fare)", ch.Values, ref(grid, core.Avg, "fare", week2), core.Avg)

	// The density heatmap is one point pass and conserves the point count.
	var hm Heatmap
	d.do("POST", "/api/heatmap", `{"dataset":"taxi","w":128}`, expect{cache: "miss", engine: "pointpass"}, &hm)
	if hm.W != 128 || hm.Total != float64(taxi.Len()) {
		t.Errorf("heatmap %d px wide holds %v points, want 128 and %d", hm.W, hm.Total, taxi.Len())
	}
	d.do("POST", "/api/heatmap", `{"dataset":"taxi","w":128}`, expect{cache: "hit"}, nil)

	// The whole data set, no window: a plain raster join. The choropleth
	// PNG that follows renders the map view's entry; it misses only its own.
	d.do("POST", "/api/mapview", mapview("neighborhoods", "count", "", ""),
		expect{cache: "miss", engine: "raster", algo: raster}, &ch)
	checkValues(t, "all pickups", ch.Values, ref(nbhd, core.Count, "", nil), core.Count)
	const pngPath = "/api/render/choropleth.png?dataset=taxi&layer=neighborhoods&agg=count&w=320"
	var pngBytes []byte
	d.do("GET", pngPath, "", expect{cache: "miss", cross: true}, &pngBytes)
	img, err := png.Decode(bytes.NewReader(pngBytes))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 320 {
		t.Errorf("choropleth is %d px wide, want 320", img.Bounds().Dx())
	}
	d.do("GET", pngPath, "", expect{cache: "hit"}, nil)

	// MAX(fare): neither slabs nor a window, so the raster join answers,
	// and the largest regional maximum is the data's.
	var maxQ queryResponse
	d.do("POST", "/api/query", `{"stmt":"SELECT MAX(fare) FROM taxi, neighborhoods"}`,
		expect{cache: "miss", engine: "raster", algo: raster, reason: routingReasons["raster"]}, &maxQ)
	checkValues(t, "MAX(fare)", maxQ.Rows, ref(nbhd, core.Max, "fare", nil), core.Max)
	if got, want := slices.MaxFunc(maxQ.Rows, func(a, b RegionValue) int {
		return cmp.Compare(a.Value, b.Value)
	}).Value, slices.Max(taxi.Attr("fare")); got != want {
		t.Errorf("largest regional MAX(fare) %v, data max %v", got, want)
	}
}

// TestDemoArchitectRank is the introduction's architect scenario: the city's
// canned query answered by the pre-aggregation cube, the same counts under
// an ad-hoc filter answered by the raster join, the architect's
// neighborhood picked from the map view, the neighborhoods most similar to
// it on taxi, 311 and photo metrics, and where the city's trips go.
func TestDemoArchitectRank(t *testing.T) {
	taxi, nbhd := taxiScene(7)
	c311 := data.Generate(data.NYC311Config(5_000, 2009, time.January, 8))
	photos := data.Generate(data.NYCPhotosConfig(3_000, 2009, time.January, 9))
	d := newDemo(t, []*data.PointSet{taxi, c311, photos}, []*data.RegionSet{nbhd}, func(f *Framework) {
		if _, err := f.BuildCube("taxi", "neighborhoods", day, []string{"fare"}); err != nil {
			t.Fatal(err)
		}
	})
	raster := d.s.f.rasterJoiner().Name()
	const cube = "pre-aggregation-cube"
	all := exact(t, core.Request{Points: taxi, Regions: nbhd, Agg: core.Count})

	// The canned query: a cube lookup.
	canned := `{"stmt":"SELECT COUNT(*) FROM taxi, neighborhoods GROUP BY id"}`
	var q queryResponse
	d.do("POST", "/api/query", canned, expect{cache: "miss", engine: "cube", algo: cube, reason: routingReasons["cube"]}, &q)
	checkValues(t, "canned", q.Rows, all, core.Count)
	d.do("POST", "/api/query", canned, expect{cache: "hit"}, nil)

	// An ad-hoc filter the cube cannot serve; it keeps every trip, so the
	// raster join must give the cube's counts.
	var adhoc queryResponse
	d.do("POST", "/api/query", `{"stmt":"SELECT COUNT(*) FROM taxi, neighborhoods WHERE fare BETWEEN 0 AND 100000 GROUP BY id"}`,
		expect{cache: "miss", engine: "raster", algo: raster, reason: routingReasons["raster"]}, &adhoc)
	if !slices.Equal(adhoc.Rows, q.Rows) {
		t.Error("cube and raster join disagree on the unfiltered counts")
	}

	// The map view reads the canned query's entry; the architect's
	// neighborhood is the busiest one.
	var ch Choropleth
	d.do("POST", "/api/mapview", `{"dataset":"taxi","layer":"neighborhoods","agg":"count"}`,
		expect{cache: "hit", algo: cube, cross: true}, &ch)
	if !slices.Equal(ch.Values, q.Rows) {
		t.Error("the map view differs from the canned query's rows")
	}
	target := slices.MaxFunc(ch.Values, func(a, b RegionValue) int { return cmp.Compare(a.Value, b.Value) })

	// The ranking: the two taxi metrics are cube lookups, the 311 and photo
	// metrics one raster join each.
	metrics := []MetricSpec{
		{Name: "taxi activity", Selection: Selection{Dataset: "taxi", Agg: core.Count}},
		{Name: "avg fare", Selection: Selection{Dataset: "taxi", Agg: core.Avg, Attr: "fare"}},
		{Name: "311 complaints", Selection: Selection{Dataset: "311", Agg: core.Count}},
		{Name: "photo density", Selection: Selection{Dataset: "photos", Agg: core.Count}},
	}
	wire := make([]string, len(metrics))
	for i, m := range metrics {
		wire[i] = fmt.Sprintf(`{"name":%q,"dataset":%q,"agg":%q,"attr":%q}`,
			m.Name, m.Dataset, strings.ToLower(m.Agg.String()), m.Attr)
	}
	rank := fmt.Sprintf(`{"layer":"neighborhoods","targetId":%d,"metrics":[%s]}`, target.ID, strings.Join(wire, ","))
	var scores []RegionScore
	tr := d.do("POST", "/api/rank", rank, expect{cache: "miss", engine: "raster"}, &scores)
	if tr["tiles"] != "2" {
		t.Errorf("ranking ran %s raster tiles, want 2 (the cube serves the taxi metrics)", tr["tiles"])
	}
	checkRanking(t, scores, nbhd, target.ID, metrics, func(m MetricSpec) *core.Result {
		ps := map[string]*data.PointSet{"taxi": taxi, "311": c311, "photos": photos}[m.Dataset]
		return exact(t, core.Request{Points: ps, Regions: nbhd, Agg: m.Agg, Attr: m.Attr})
	})
	d.do("POST", "/api/rank", rank, expect{cache: "hit"}, nil)

	// Where the trips go: the flow join resolves every trip or drops it.
	var fl FlowView
	d.do("POST", "/api/flows", `{"dataset":"taxi","layer":"neighborhoods","top":5}`,
		expect{cache: "miss", engine: "pointpass"}, &fl)
	if fl.Total+fl.Dropped != int64(taxi.Len()) || fl.Total < int64(taxi.Len())/2 {
		t.Errorf("flows resolved %d and dropped %d of %d trips", fl.Total, fl.Dropped, taxi.Len())
	}
	if len(fl.Edges) != 5 || !slices.IsSortedFunc(fl.Edges, func(a, b FlowEdge) int { return int(b.Count - a.Count) }) {
		t.Errorf("flow edges %v, want the 5 strongest in order", fl.Edges)
	}
}

// checkRanking recomputes the ranking from the reference answers: each
// metric z-normalized over the layer, each region's distance to the target
// in that space. Every region but the target is scored, most similar first.
func checkRanking(t *testing.T, scores []RegionScore, rs *data.RegionSet, targetID int,
	metrics []MetricSpec, ref func(MetricSpec) *core.Result) {
	t.Helper()
	n := rs.Len()
	z := make([][]float64, n)
	for k := range z {
		z[k] = make([]float64, len(metrics))
	}
	for m, spec := range metrics {
		res := ref(spec)
		mean, sq := 0.0, 0.0
		for k := range z {
			mean += res.Value(k, spec.Agg) / float64(n)
		}
		for k := range z {
			sq += math.Pow(res.Value(k, spec.Agg)-mean, 2)
		}
		std := math.Sqrt(sq / float64(n))
		if std == 0 {
			std = 1
		}
		for k := range z {
			z[k][m] = (res.Value(k, spec.Agg) - mean) / std
		}
	}
	target := z[slices.IndexFunc(rs.Regions, func(r data.Region) bool { return r.ID == targetID })]
	if len(scores) != n-1 || !sort.SliceIsSorted(scores, func(i, j int) bool { return scores[i].Distance < scores[j].Distance }) {
		t.Fatalf("%d scores for %d regions, or not most similar first", len(scores), n)
	}
	for _, s := range scores {
		k := slices.IndexFunc(rs.Regions, func(r data.Region) bool { return r.ID == s.ID })
		if s.ID == targetID || k < 0 {
			t.Fatalf("scored region %d: the target or unknown", s.ID)
		}
		d2 := 0.0
		for m := range metrics {
			d2 += math.Pow(z[k][m]-target[m], 2)
			if !agrees(s.Values[m], z[k][m], core.Avg) {
				t.Fatalf("region %d metric %q = %v, reference %v", s.ID, metrics[m].Name, s.Values[m], z[k][m])
			}
		}
		if !agrees(s.Distance, math.Sqrt(d2), core.Avg) {
			t.Fatalf("region %d distance %v, reference %v", s.ID, s.Distance, math.Sqrt(d2))
		}
	}
}

// TestDemoDrawnPolygonExplore is the drawn-polygon scenario: a user
// sketches a star over lower Manhattan and aggregates inside it — the
// GeoBlocks hierarchy answers unfiltered questions, the raster join filtered
// or windowed ones — then opens the exploration view on the neighborhoods
// the sketch touches, comparing taxi and 311 activity week by week.
func TestDemoDrawnPolygonExplore(t *testing.T) {
	taxi, nbhd := taxiScene(99)
	c311 := data.Generate(data.NYC311Config(5_000, 2009, time.January, 100))
	const maxLevel = 8
	d := newDemo(t, []*data.PointSet{taxi, c311}, []*data.RegionSet{nbhd},
		func(f *Framework) { f.EnableGeoBlocks(maxLevel) })
	raster := d.s.f.rasterJoiner().Name()
	hybrid := fmt.Sprintf("geoblocks-hybrid(maxlevel=%d)", maxLevel)
	jan := workload.Jan2009()

	sketch := workload.AdHocPolygon(5)
	ring := sketch.Regions[0].Poly.Outer
	vertices := make([]string, len(ring))
	for i, p := range ring {
		vertices[i] = "[" + strconv.FormatFloat(p.X, 'g', -1, 64) + "," + strconv.FormatFloat(p.Y, 'g', -1, 64) + "]"
	}
	polygon := func(agg, attr, rest string) string {
		return fmt.Sprintf(`{"dataset":"taxi","agg":%q,"attr":%q,"ring":[%s]%s}`,
			agg, attr, strings.Join(vertices, ","), rest)
	}
	inside := func(agg core.Agg, attr string, win *core.TimeFilter, filters ...core.Filter) float64 {
		return exact(t, core.Request{Points: taxi, Regions: sketch, Agg: agg, Attr: attr,
			Filters: filters, Time: win}).Value(0, agg)
	}
	checkPolygon := func(what string, p polygonResponse, agg core.Agg, want float64) {
		t.Helper()
		if !agrees(p.Value, want, agg) {
			t.Errorf("%s inside the sketch = %v, index.BruteForce %v", what, p.Value, want)
		}
	}

	// Trips inside the sketch: interior cells plus a refined fringe.
	var p polygonResponse
	d.do("POST", "/api/polygon", polygon("count", "", ""), expect{cache: "miss", engine: "geoblocks", algo: hybrid}, &p)
	checkPolygon("COUNT", p, core.Count, inside(core.Count, "", nil))
	if p.Count != int64(p.Value) {
		t.Errorf("count %d, value %v", p.Count, p.Value)
	}
	d.do("POST", "/api/polygon", polygon("count", "", ""), expect{cache: "hit"}, nil)

	// Fare revenue inside it, still from the hierarchy.
	d.do("POST", "/api/polygon", polygon("sum", "fare", ""), expect{cache: "miss", engine: "geoblocks", algo: hybrid}, &p)
	checkPolygon("SUM(fare)", p, core.Sum, inside(core.Sum, "fare", nil))

	// Premium trips only, and one week only: the raster join runs exactly.
	premium := core.Filter{Attr: "fare", Min: 30, Max: 1e9}
	d.do("POST", "/api/polygon", polygon("count", "", `,"filters":[{"attr":"fare","min":30,"max":1e9}]`),
		expect{cache: "miss", engine: "raster", algo: raster}, &p)
	checkPolygon("premium COUNT", p, core.Count, inside(core.Count, "", nil, premium))
	week := workload.JanWeek(2)
	d.do("POST", "/api/polygon", polygon("avg", "fare", `,"time":`+windowJSON(week)),
		expect{cache: "miss", engine: "raster", algo: raster}, &p)
	checkPolygon("week 3 AVG(fare)", p, core.Avg, inside(core.Avg, "fare", week))

	// The exploration view on the neighborhoods the sketch touches: taxi
	// and 311 series over the month's four weeks, one series join each.
	var touched []int
	for _, r := range nbhd.Regions {
		if slices.ContainsFunc(ring, r.Poly.Contains) {
			touched = append(touched, r.ID)
		}
	}
	if len(touched) == 0 {
		t.Fatal("the sketch touches no neighborhood")
	}
	ids, _ := json.Marshal(touched)
	explore := func(datasets string, regionIDs []byte) string {
		return fmt.Sprintf(`{"datasets":[%s],"layer":"neighborhoods","agg":"count","regionIds":%s,"start":%d,"end":%d,"bins":4}`,
			datasets, regionIDs, jan.Start, jan.End)
	}
	var ex Exploration
	d.do("POST", "/api/explore", explore(`"taxi","311"`, ids), expect{cache: "miss", engine: "raster"}, &ex)
	checkSeries(t, ex, map[string]*data.PointSet{"taxi": taxi, "311": c311}, nbhd, jan.End)
	if len(ex.Series) != 2*len(touched) {
		t.Errorf("%d series for 2 data sets x %d neighborhoods", len(ex.Series), len(touched))
	}
	d.do("POST", "/api/explore", explore(`"taxi","311"`, ids), expect{cache: "hit"}, nil)

	// Over every neighborhood, each region's series sums to its value on
	// the month's map view.
	d.do("POST", "/api/explore", explore(`"taxi"`, []byte("[]")), expect{cache: "miss", engine: "raster"}, &ex)
	checkSeries(t, ex, map[string]*data.PointSet{"taxi": taxi}, nbhd, jan.End)
	var ch Choropleth
	d.do("POST", "/api/mapview", `{"dataset":"taxi","layer":"neighborhoods","agg":"count","time":`+windowJSON(jan)+`}`,
		expect{cache: "miss", engine: "raster", algo: raster}, &ch)
	checkValues(t, "month", ch.Values, exact(t, core.Request{Points: taxi, Regions: nbhd, Agg: core.Count, Time: jan}), core.Count)
	for k, s := range ex.Series {
		sum := 0.0
		for _, v := range s.Values {
			sum += v
		}
		if sum != ch.Values[k].Value {
			t.Fatalf("region %d: series sum %v, map view %v", s.RegionID, sum, ch.Values[k].Value)
		}
	}
}

// checkSeries compares every exploration series, bin by bin, with the
// reference COUNT over the bin's window; the last bin ends at end.
func checkSeries(t *testing.T, ex Exploration, points map[string]*data.PointSet, rs *data.RegionSet, end int64) {
	t.Helper()
	refs := map[string][]*core.Result{}
	for name, ps := range points {
		for b, start := range ex.BinStarts {
			win := &core.TimeFilter{Start: start, End: end}
			if b+1 < len(ex.BinStarts) {
				win.End = ex.BinStarts[b+1]
			}
			refs[name] = append(refs[name], exact(t, core.Request{Points: ps, Regions: rs, Agg: core.Count, Time: win}))
		}
	}
	for _, s := range ex.Series {
		k := slices.IndexFunc(rs.Regions, func(r data.Region) bool { return r.ID == s.RegionID })
		for b, v := range s.Values {
			if want := refs[s.Dataset][b].Value(k, core.Count); v != want {
				t.Fatalf("%s region %d bin %d = %v, index.BruteForce %v", s.Dataset, s.RegionID, b, v, want)
			}
		}
	}
}
