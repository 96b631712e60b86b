package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/fsum"
	"repro/internal/geoblocks"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/raster"
	"repro/internal/render"
	"repro/internal/segment"
	"repro/internal/shard"
	"repro/internal/tcache"
	"repro/internal/urbane"
	"repro/internal/workload"
)

// The layer tier times public entry points of each internal package from
// outside, on the scene the servers use. Every measured call is a span
// under the "layer-tier" root; the reported figure is the median of its
// repetitions.
const (
	tierRoot = "layer-tier"
	// A metric repeats until it has tierReps samples, or, once it has
	// tierMinReps, until it has used tierBudget: expensive builds (data
	// generation, cube, pyramid) stop at three so the tier fits a run.
	tierReps    = 9
	tierMinReps = 3
	tierBudget  = 900 * time.Millisecond
)

type tier struct {
	ctx context.Context
	rec *recorder
	out map[string]float64
	err error
}

// check keeps the first error; the tier's calls cannot fail on the fixed
// scene, so one failure invalidates the lot.
func (t *tier) check(err error) {
	if err != nil && t.err == nil {
		t.err = err
	}
}

// med times fn repeatedly and returns the median duration. A collection
// first, so one metric's garbage is not collected on the next one's clock.
func (t *tier) med(name string, fn func()) time.Duration {
	runtime.GC()
	var ds []time.Duration
	var spent time.Duration
	for len(ds) < tierReps && (len(ds) < tierMinReps || spent < tierBudget) {
		d := t.rec.time(tierRoot, name, tierRoot, fn)
		ds = append(ds, d)
		spent += d
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp times a sub-microsecond-to-microsecond operation: one repetition
// is iters calls, the result the median repetition divided by iters.
func (t *tier) perOp(name string, iters int, fn func()) time.Duration {
	return t.med(name, func() {
		for i := 0; i < iters; i++ {
			fn()
		}
	}) / time.Duration(iters)
}

// budgetRow is one line of the Q_wide latency budget.
type budgetRow struct {
	Stage, How string
	Ms         float64
	InSum      bool
}

// layerTier runs the tier at the given scene size and returns its metrics
// and the latency budget for Q_wide.
func layerTier(ctx context.Context, points int, rec *recorder) (map[string]float64, []budgetRow, error) {
	t := &tier{ctx: ctx, rec: rec, out: map[string]float64{}}
	start := time.Now()
	rows := t.run(points)
	rec.add(span{ID: tierRoot, Name: tierRoot, StartNs: rec.since(start), EndNs: rec.since(time.Now())})
	return t.out, rows, t.err
}

func (t *tier) run(points int) []budgetRow {
	ctx, out := t.ctx, t.out
	nproc := runtime.GOMAXPROCS(0)

	// data: the generator behind setup_s.
	var taxi *data.PointSet
	out["data.generate_ms"] = ms(t.med("data.generate", func() {
		taxi = sceneTaxi(points)
	}))
	tracts, hoods := sceneLayers().Tracts, sceneLayers().Neighborhoods
	jan := workload.Jan2009()
	qWide := core.Request{Points: taxi, Regions: tracts, Agg: core.Avg, Attr: "fare", Time: jan}
	qNarrow := qWide
	noon := jan.Start + 14*86400 + 12*3600
	qNarrow.Time = &core.TimeFilter{Start: noon, End: noon + 2*3600}

	join := func(j core.ContextJoiner, req core.Request) func() {
		return func() { _, err := j.JoinContext(ctx, req); t.check(err) }
	}

	// core: the accurate join with a warm span cache, its approximate twin
	// (no boundary refine) and the narrow request (almost no points).
	dev := gpu.New()
	acc := core.NewRasterJoin(core.WithDevice(dev), core.WithMode(core.Accurate), core.WithResolution(1024))
	approx := core.NewRasterJoin(core.WithMode(core.Approximate), core.WithResolution(1024))
	join(acc, qWide)()
	join(approx, qWide)()
	wide := t.med("core.join_wide", join(acc, qWide))
	narrow := t.med("core.join_narrow", join(acc, qNarrow))
	approxWide := t.med("core.join_approx", join(approx, qWide))
	approxNarrow := t.med("core.join_approx_narrow", join(approx, qNarrow))
	out["core.join_wide_ms"] = ms(wide)
	out["core.join_narrow_ms"] = ms(narrow)
	out["core.join_approx_ms"] = ms(approxWide)
	out["core.refine_share"] = float64(wide-approxWide) / float64(wide)
	out["core.scan_share"] = float64(narrow) / float64(wide)
	coldSpans := t.med("core.join_cold_spans", func() {
		cold := core.NewRasterJoin(core.WithDevice(gpu.New()), core.WithMode(core.Accurate), core.WithResolution(1024))
		join(cold, qWide)()
	})

	// The end-to-end figure the budget decomposes: Q_wide as a cold
	// /api/mapview over loopback HTTP against the same engine, every
	// request with a window end no earlier request had (the same points, a
	// different cache key), and the same request again as a cache hit.
	f := urbane.New(acc)
	t.check(f.AddPointSet(taxi))
	t.check(f.AddRegionSet(tracts))
	srv := httptest.NewServer(urbane.NewServer(f))
	defer srv.Close()
	n := 0
	post := func(end int64) {
		body := fmt.Sprintf(`{"dataset":"taxi","layer":"tracts","agg":"avg","attr":"fare","time":{"start":%d,"end":%d}}`, jan.Start, end)
		resp, err := http.Post(srv.URL+"/api/mapview", "application/json", strings.NewReader(body))
		t.check(err)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			t.check(err)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.check(fmt.Errorf("budget mapview: status %d", resp.StatusCode))
			}
		}
	}
	post(jan.End)
	cold := t.med("budget.mapview_cold", func() { n++; post(jan.End + int64(n)) })
	hit := t.med("budget.mapview_hit", func() { post(jan.End) })

	// gpu + raster: the point pass alone, span compilation and span replay
	// on the join's own canvas geometry.
	world := tracts.Bounds()
	tf := raster.SquareTransform(world, max(world.Width(), world.Height())/1024)
	canvas, err := dev.NewCanvas(tf.World, tf.W, tf.H)
	if err != nil {
		t.check(err)
		return nil
	}
	defer canvas.Release()
	tex := dev.AcquireTexture(tf.W, tf.H)
	defer dev.ReleaseTexture(tex)
	pos := func(i int) (float64, float64) { return taxi.X[i], taxi.Y[i] }
	count := func(px, py, _ int) { tex.Add(px, py, 1) }
	pass := func(workers int) func() {
		return func() { t.check(canvas.DrawPointsParallel(ctx, workers, taxi.Len(), pos, count)) }
	}
	w1 := t.med("gpu.pointpass_w1", pass(1))
	wN := t.med("gpu.pointpass_wN", pass(nproc))
	out["gpu.pointpass_w1_mpts_s"] = float64(taxi.Len()) / w1.Seconds() / 1e6
	out["gpu.pointpass_wN_mpts_s"] = float64(taxi.Len()) / wN.Seconds() / 1e6
	polys := make([]geom.Polygon, tracts.Len())
	for k, r := range tracts.Regions {
		polys[k] = r.Poly
	}
	var spans *raster.RegionSpans
	out["raster.compile_tracts_ms"] = ms(t.med("raster.compile_tracts", func() {
		spans, err = raster.CompileRegions(ctx, canvas.T, polys)
		t.check(err)
	}))
	if t.err != nil {
		return nil
	}
	occupied := 0 // what pass 2 does per fragment: read the point texture
	replay := t.med("gpu.drawspans", func() {
		for k := range polys {
			canvas.DrawSpans(spans.Fill(k), func(px, py int) {
				if tex.At(px, py) > 0 {
					occupied++
				}
			})
		}
	})
	out["gpu.drawspans_ms"] = ms(replay)

	// segment: encode, cold and resident block reads, and Q_wide through a
	// store whose cache is as small as segment_scan's.
	var file bytes.Buffer
	out["segment.write_ms"] = ms(t.med("segment.write", func() {
		file.Reset()
		t.check(segment.Write(&file, taxi))
	}))
	store, err := segment.OpenReaderAt(bytes.NewReader(file.Bytes()), int64(file.Len()), segment.WithCacheBytes(segCacheBytes))
	t.check(err)
	if t.err != nil {
		return nil
	}
	defer store.Close()
	next := 0
	out["segment.block_decode_us"] = us(t.med("segment.block_decode", func() {
		_, err := store.Block(next % store.NumBlocks()) // a block not yet resident while blocks > reps
		t.check(err)
		next++
	}))
	out["segment.block_hit_us"] = us(t.perOp("segment.block_hit", 1000, func() {
		_, err := store.Block(0)
		t.check(err)
	}))
	segReq := qWide
	segReq.Source = store
	join(acc, segReq)()
	out["segment.join_ratio"] = float64(t.med("segment.join_wide", join(acc, segReq))) / float64(wide)

	// shard: the coordinator around the same join.
	s1 := t.med("shard.join_s1", join(shard.New(acc, 1), qWide))
	out["shard.join_s1_ms"] = ms(s1)
	out["shard.join_s2_ms"] = ms(t.med("shard.join_s2", join(shard.New(acc, 2), qWide)))
	out["shard.overhead_s1"] = float64(s1) / float64(wide)

	// geoblocks: pyramid build, one warm 16-vertex polygon, a 32-point patch.
	var ix *geoblocks.Index
	out["geoblocks.build_ms"] = ms(t.med("geoblocks.build", func() {
		ix, err = geoblocks.BuildContext(ctx, taxi, geoblocks.DefaultMaxLevel)
		t.check(err)
	}))
	if t.err != nil {
		return nil
	}
	c := world.Center()
	star := geom.NewPolygon(geom.StarRing(c, 0.12*world.Width(), 0.06*world.Width(), 8))
	ring := &data.RegionSet{Name: "polygon", Regions: []data.Region{{Name: "polygon", Poly: star}}}
	eng := geoblocks.NewEngine(acc, geoblocks.DefaultMaxLevel)
	ringReq := core.Request{Points: taxi, Regions: ring, Agg: core.Sum, Attr: "fare"}
	join(eng, ringReq)() // builds and caches the pyramid
	out["geoblocks.query_warm_us"] = us(t.perOp("geoblocks.query_warm", 20, join(eng, ringReq)))
	plan, err := ix.Classify(ctx, star)
	t.check(err)
	out["geoblocks.fringe_points"] = float64(ix.FringePoints(plan))
	grown, err := taxi.AppendCOW(tail(taxi, 32))
	t.check(err)
	if t.err != nil {
		return nil
	}
	out["geoblocks.patch_ms"] = ms(t.med("geoblocks.patch", func() {
		_, err := ix.PatchAppend(ctx, grown)
		t.check(err)
	}))

	// tcache: an 8-slab window sliding one slab (7 reused, 1 recomputed)
	// against folding all 8 cold, as EXPERIMENTS.md E21.
	slabReq := core.Request{Points: taxi, Regions: hoods, Agg: core.Sum, Attr: "fare"}
	cursor := jan.Start
	window := func() core.Request {
		r := slabReq
		r.Time = &core.TimeFilter{Start: cursor, End: cursor + sliderSlabs*slab6h}
		return r
	}
	slabs := tcache.New(acc, slab6h, 0, 0)
	join(slabs, window())()
	out["tcache.slide_ms"] = ms(t.med("tcache.slide", func() {
		cursor += slab6h
		join(slabs, window())()
	}))
	out["tcache.cold_fold_ms"] = ms(t.med("tcache.cold_fold", func() {
		join(tcache.New(acc, slab6h, 0, 0), window())()
	}))

	// qcache: a hit on a mapview-sized body and the canonical key of a
	// 3-filter mapview.
	qc := qcache.New(urbane.DefaultCacheBytes)
	filters := []core.Filter{{Attr: "passengers", Min: 1, Max: 4}, {Attr: "fare", Min: 5, Max: 50}, {Attr: "distance", Min: 0.5, Max: 20}}
	key := func() string {
		return qcache.NewSig("mapview").Epoch("taxi", 1).Str("layer", "tracts").
			Str("agg", "avg").Str("attr", "fare").
			Filters("f", qcache.CanonFilters(filters)).TimeRange("t", jan).Key()
	}
	qc.Put(key(), make([]byte, 96<<10))
	k := key()
	out["qcache.hit_us"] = us(t.perOp("qcache.hit", 1000, func() {
		if _, ok := qc.Get(k); !ok {
			t.check(fmt.Errorf("qcache: stored key missed"))
		}
	}))
	out["qcache.key_us"] = us(t.perOp("qcache.key", 1000, func() { k = key() }))

	// cube: the offline build and a canned lookup.
	var cb *cube.Cube
	out["cube.build_ms"] = ms(t.med("cube.build", func() {
		cb, err = cube.Build(taxi, cube.Config{Regions: hoods, TimeBin: 86400, Attrs: []string{"fare"}})
		t.check(err)
	}))
	if t.err != nil {
		return nil
	}
	canned := core.Request{Points: taxi, Regions: hoods, Agg: core.Avg, Attr: "fare"}
	out["cube.query_us"] = us(t.perOp("cube.query", 100, func() {
		_, err := core.JoinContext(ctx, cb, canned)
		t.check(err)
	}))

	// query: parse and plan of a filtered, windowed statement.
	stmt := fmt.Sprintf("SELECT AVG(fare) FROM taxi, tracts WHERE fare BETWEEN 5 AND 50 AND time BETWEEN %d AND %d GROUP BY id", jan.Start, jan.End)
	var q query.Query
	out["query.parse_us"] = us(t.perOp("query.parse", 1000, func() {
		q, err = query.Parse(stmt)
		t.check(err)
	}))
	planner := query.NewPlanner(acc)
	out["query.plan_us"] = us(t.perOp("query.plan", 1000, func() {
		_, err := planner.Plan(q, f)
		t.check(err)
	}))

	// render: a 256 px tract choropleth and its PNG.
	res, err := acc.JoinContext(ctx, qWide)
	t.check(err)
	if t.err != nil {
		return nil
	}
	values := make([]float64, tracts.Len())
	for i := range values {
		values[i] = res.Value(i, core.Avg)
	}
	out["render.choropleth_ms"] = ms(t.med("render.choropleth", func() {
		_, err := render.Choropleth(tracts, values, 256, render.BlueRamp)
		t.check(err)
	}))
	pic, err := render.Choropleth(tracts, values, 256, render.BlueRamp)
	t.check(err)
	if t.err != nil {
		return nil
	}
	out["render.png_encode_ms"] = ms(t.med("render.png_encode", func() {
		t.check(render.EncodePNG(io.Discard, pic))
	}))

	pos0 := func(d time.Duration) float64 { return max(ms(d), 0) }
	rows := []budgetRow{
		{"decode + wire", "mapview cache hit over HTTP", ms(hit), true},
		{"scan / prune", "approx wide - approx narrow - point pass", pos0(approxWide - approxNarrow - wN), true},
		{"point pass", "DrawPointsParallel, nproc workers", ms(wN), true},
		{"region compile", "cold - warm span cache (first touch of a layer only)", pos0(coldSpans - wide), false},
		{"region replay", "DrawSpans over compiled tracts", ms(replay), true},
		{"boundary refine", "accurate - approximate", pos0(wide - approxWide), true},
		{"merge + fixed", "approx narrow - region replay", pos0(approxNarrow - replay), true},
		{"encode", "cold mapview - JoinContext - cache hit", pos0(cold - wide - hit), true},
	}
	var sum fsum.Kahan
	for _, r := range rows {
		if r.InSum {
			sum.Add(r.Ms)
		}
	}
	out["budget.total_ms"] = ms(cold)
	out["budget.unattributed_share"] = math.Abs(ms(cold)-sum.Sum()) / ms(cold)
	if occupied == 0 {
		t.check(fmt.Errorf("span replay saw an empty point texture"))
	}
	return rows
}

// tail builds n points past ps's last timestamp, inside its bounds, with
// ps's schema — what one /api/append batch looks like.
func tail(ps *data.PointSet, n int) *data.PointSet {
	b := ps.Bounds()
	out := &data.PointSet{Name: ps.Name}
	last := ps.T[ps.Len()-1]
	for i := 0; i < n; i++ {
		u := float64(i+1) / float64(n+1)
		out.X = append(out.X, b.MinX+u*b.Width())
		out.Y = append(out.Y, b.MinY+(1-u)*b.Height())
		out.T = append(out.T, last+int64(i))
	}
	for _, c := range ps.Attrs {
		out.Attrs = append(out.Attrs, data.Column{Name: c.Name, Values: make([]float64, n)})
	}
	return out
}

// printBudget prints the Q_wide latency budget.
func printBudget(rows []budgetRow, layers map[string]float64) {
	fmt.Println("-- latency budget: Q_wide (taxi x tracts AVG(fare), all of January) as a cold /api/mapview")
	for _, r := range rows {
		note := ""
		if !r.InSum {
			note = "  (not in the sum)"
		}
		fmt.Printf("%-16s %10.3f ms  = %s%s\n", r.Stage, r.Ms, r.How, note)
	}
	fmt.Printf("%-16s %10.3f ms  end to end; budget.unattributed_share = %.4f\n",
		"total", layers["budget.total_ms"], layers["budget.unattributed_share"])
}
