// Package urbane is the visual-analytics framework of the paper: a registry
// of spatio-temporal data sets and polygonal layers, the map view
// (choropleths over regions at any resolution), the data exploration view
// (per-region time series across multiple data sets), neighborhood
// ranking/similarity for the architect scenario, and an HTTP JSON API the
// demo frontend talks to.
//
// All views are driven by spatial aggregation queries executed through the
// query planner: canned queries hit pre-aggregation cubes, everything
// ad-hoc runs through Raster Join at interactive speeds.
package urbane

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/geoblocks"
	"repro/internal/query"
	"repro/internal/tcache"
)

// Framework is the Urbane backend. Create with New; safe for concurrent
// use.
type Framework struct {
	mu      sync.RWMutex
	points  map[string]*data.PointSet
	regions map[string]*data.RegionSet
	// sources maps data set names to columnar block sources (segment
	// stores): when present, ad-hoc execution for that set runs
	// block-at-a-time with zone-map pruning instead of scanning the in-RAM
	// arrays. See AttachSegments.
	sources map[string]data.PointSource
	// planner is the current routing snapshot. It is never edited in place:
	// toggles swap in a modified copy under mu (reroute), and queries take
	// the pointer under mu and then read only their own snapshot.
	planner *query.Planner
	// epochs counts writes per data set: Append and BuildCube advance only
	// the touched set's epoch. Response-cache keys embed the epoch, so a
	// write produces fresh keys for that data set alone and every other
	// set's entries stay warm.
	epochs map[string]uint64
	// version counts the catalog-wide mutations that can change response
	// bytes across data sets (engine toggles). Every query-result cache key
	// names it, so a bump moves every later request to a fresh key.
	// Per-data-set writes advance an epoch instead — see epochs.
	version atomic.Uint64
}

// Version returns the catalog version. It increases only on engine toggles
// that reroute execution across data sets (EnableGeoBlocks,
// EnableIncremental — the served Algorithm/Reason strings and SUM grouping
// change), never on registrations or writes: adding a point set, layer, or
// segment source cannot change any already-cached response's bytes, and
// appends/cube builds advance the touched data set's Epoch instead. A
// toggle bumps the version after it swaps the routing chain, so a request
// whose cache key names the new version always routes on the new chain.
func (f *Framework) Version() uint64 { return f.version.Load() }

// Epoch returns the per-data-set write epoch: 1 on registration, advanced
// by every Append and BuildCube against the set, 0 for unknown names.
func (f *Framework) Epoch(name string) uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.epochs[name]
}

// New returns a framework executing ad-hoc queries on the given raster
// joiner (nil uses a default accurate joiner at 1024px — exact results at
// map-view resolution).
func New(rj *core.RasterJoin) *Framework {
	if rj == nil {
		rj = core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(1024))
	}
	return &Framework{
		points:  make(map[string]*data.PointSet),
		regions: make(map[string]*data.RegionSet),
		sources: make(map[string]data.PointSource),
		epochs:  make(map[string]uint64),
		planner: query.NewPlanner(rj),
	}
}

// AddPointSet registers a point data set under its name and stamps it: from
// here on its columns are an immutable snapshot (writes go through Append),
// so stamp-keyed state such as its bounds is computed once.
func (f *Framework) AddPointSet(ps *data.PointSet) error {
	if err := ps.Validate(); err != nil {
		return err
	}
	if ps.Name == "" {
		return fmt.Errorf("urbane: point set needs a name")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.points[ps.Name]; dup {
		return fmt.Errorf("urbane: point set %q already registered", ps.Name)
	}
	ps.Stamp()
	f.points[ps.Name] = ps
	// Registration is non-invalidating: no cached response can mention a
	// data set that did not exist when it was computed, and duplicate names
	// are rejected, so nothing already cached can change. The set starts at
	// epoch 1; writes advance it.
	f.epochs[ps.Name] = 1
	return nil
}

// AddRegionSet registers a polygonal layer under its name and stamps it, as
// AddPointSet does: the layer's regions are immutable from here on.
func (f *Framework) AddRegionSet(rs *data.RegionSet) error {
	if rs.Name == "" {
		return fmt.Errorf("urbane: region set needs a name")
	}
	for _, r := range rs.Regions {
		if err := r.Poly.Validate(); err != nil {
			return fmt.Errorf("urbane: region %q: %w", r.Name, err)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.regions[rs.Name]; dup {
		return fmt.Errorf("urbane: region set %q already registered", rs.Name)
	}
	// Non-invalidating for the same reason as AddPointSet: a new layer
	// cannot appear in any already-cached response, and error responses are
	// never cached.
	rs.Stamp()
	f.regions[rs.Name] = rs
	return nil
}

// EnableGeoBlocks turns on the pre-aggregated spatial hierarchy: the
// planner routes unfiltered polygon aggregation through a geoblocks engine
// (interior cells answered from stored aggregates, boundary fringe refined
// exactly) instead of the full raster join. maxLevel <= 0 uses
// geoblocks.DefaultMaxLevel. Hierarchies build lazily on first query per
// data-set snapshot, keyed by its stamp. Enabling bumps the version so
// previously cached responses (which name their algorithm) are no longer
// asked for.
func (f *Framework) EnableGeoBlocks(maxLevel int) *geoblocks.Engine {
	f.mu.Lock()
	eng := geoblocks.NewEngine(f.planner.Raster, maxLevel)
	f.reroute(func(pl *query.Planner) { pl.GeoBlocks = eng })
	f.mu.Unlock()
	f.version.Add(1)
	return eng
}

// GeoBlocks returns the hierarchy engine, or nil when disabled.
func (f *Framework) GeoBlocks() *geoblocks.Engine {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.planner.GeoBlocks
}

// EnableIncremental turns on incremental temporal view maintenance: the
// planner answers slab-aligned time-windowed aggregation as a chronological
// fold of cached per-slab partials (gran is the slab width in seconds —
// the server passes its -time-snap bucket, so every snapped window is
// automatically slab-aligned). cacheBytes <= 0 and maxSlabs <= 0 use the
// tcache defaults. Enabling bumps the catalog version: windowed responses
// now carry a different routing Reason, so previously cached ones are no
// longer asked for.
func (f *Framework) EnableIncremental(gran int64, cacheBytes int64, maxSlabs int) *tcache.Joiner {
	f.mu.Lock()
	j := tcache.New(f.planner.Raster, gran, cacheBytes, maxSlabs)
	f.reroute(func(pl *query.Planner) { pl.Slabs = j })
	f.mu.Unlock()
	f.version.Add(1)
	return j
}

// Incremental returns the slab-fold joiner, or nil when disabled.
func (f *Framework) Incremental() *tcache.Joiner {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.planner.Slabs
}

// reroute swaps in a copy of the planner with edit applied. The caller
// holds f.mu for writing.
func (f *Framework) reroute(edit func(pl *query.Planner)) {
	np := *f.planner
	np.Cubes = slices.Clip(np.Cubes) // an appended cube must not land in the old snapshot's backing array
	edit(&np)
	f.planner = &np
}

// routing returns the current planner snapshot.
func (f *Framework) routing() *query.Planner {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.planner
}

// AppendInfo summarizes one Append: how the catalog and the geoblocks
// pyramid moved.
type AppendInfo struct {
	// Appended is the number of points added; Len the set's new size.
	Appended int
	Len      int
	// Epoch is the data set's epoch after the append.
	Epoch uint64
	// GeoBlocksPatched reports whether the hierarchy was patched in place
	// (false when geoblocks is disabled, nothing was cached, or the patch
	// fell back to a lazy rebuild).
	GeoBlocksPatched bool
}

// Append grows the named data set with tail's points via a copy-on-write
// append: in-flight queries keep reading the old snapshot, new queries see
// the grown one. Publishing the snapshot is all it does to the caches:
// the set's epoch advances, so response-cache keys for this data set
// change while every other set's entries stay warm, and slab partials are
// keyed by the snapshot they cover (see package tcache), so the sealed
// ones stay reachable and the rest go stale. The geoblocks pyramid is the
// one structure maintained here, patched with tail-only aggregates: the
// patch lineage sets the pyramid's SUM bits, so a patch deferred to the
// next read would make those bits depend on when reads happen.
//
// tail must match the set's schema and — for sets with a time column —
// arrive in time order, no earlier than the set's last timestamp: the
// query scan binary-searches the time column, so an out-of-order append
// would silently corrupt every windowed query, and the slab fold's sealed
// partials rely on it. Appends to segment-backed sets are rejected (the
// attached source would no longer agree with the set). An empty tail is a
// no-op that reports the current state.
func (f *Framework) Append(ctx context.Context, name string, tail *data.PointSet) (AppendInfo, error) {
	if err := tail.Validate(); err != nil {
		return AppendInfo{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ps, ok := f.points[name]
	if !ok {
		return AppendInfo{}, fmt.Errorf("urbane: unknown point set %q", name)
	}
	if _, segmented := f.sources[name]; segmented {
		return AppendInfo{}, fmt.Errorf("urbane: point set %q is segment-backed; appends need an in-RAM set", name)
	}
	if tail.Len() == 0 {
		return AppendInfo{Len: ps.Len(), Epoch: f.epochs[name]}, nil
	}
	if ps.T != nil && tail.T != nil {
		last := int64(math.MinInt64)
		if n := ps.Len(); n > 0 {
			last = ps.T[n-1]
		}
		for i, tt := range tail.T {
			if tt < last {
				return AppendInfo{}, fmt.Errorf(
					"urbane: append to %q out of time order: tail[%d]=%d precedes %d (the scan binary-searches the time column)",
					name, i, tt, last)
			}
			last = tt
		}
	}
	grown, err := ps.AppendCOW(tail)
	if err != nil {
		return AppendInfo{}, err
	}
	info := AppendInfo{Appended: tail.Len(), Len: grown.Len()}
	if g := f.planner.GeoBlocks; g != nil {
		info.GeoBlocksPatched = g.Store().Patch(ctx, ps, grown)
	}
	f.points[name] = grown
	f.epochs[name]++
	info.Epoch = f.epochs[name]
	return info, nil
}

// BuildCube materializes a pre-aggregation cube for the named data set and
// layer and registers it with the planner, so canned queries short-circuit
// past the raster engine. It advances the data set's epoch (the cube
// changes how that set's canned queries answer), leaving every other data
// set's cached responses warm.
func (f *Framework) BuildCube(dataset, layer string, timeBin int64, attrs []string) (*cube.Cube, error) {
	ps, ok := f.PointSet(dataset)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown point set %q", dataset)
	}
	rs, ok := f.RegionSet(layer)
	if !ok {
		return nil, fmt.Errorf("urbane: unknown region set %q", layer)
	}
	c, err := cube.Build(ps, cube.Config{Regions: rs, TimeBin: timeBin, Attrs: attrs})
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.reroute(func(pl *query.Planner) { pl.Cubes = append(pl.Cubes, c) })
	// A new cube changes how this data set's canned queries execute (the
	// served Algorithm/Reason strings and SUM grouping differ), so cached
	// responses for this set must go — but only this set's: advance its
	// epoch instead of the catalog version.
	f.epochs[dataset]++
	f.mu.Unlock()
	return c, nil
}

// AttachSegments binds a columnar block source (typically a *segment.Store)
// to an already-registered data set: ad-hoc queries against the set then
// execute block-at-a-time through the source — zone-map pruned, decoded
// under the store's byte budget — while the in-RAM set keeps serving the
// engines that need random access (cubes, geoblocks). The source
// must agree with the set on length and schema. Attaching is
// non-invalidating: segment-backed execution is byte-identical to the
// in-RAM scan, so cached responses stay valid.
func (f *Framework) AttachSegments(dataset string, src data.PointSource) error {
	if src == nil {
		return fmt.Errorf("urbane: nil point source for %q", dataset)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ps, ok := f.points[dataset]
	if !ok {
		return fmt.Errorf("urbane: unknown point set %q", dataset)
	}
	if src.Len() != ps.Len() {
		return fmt.Errorf("urbane: segment source for %q holds %d points, set holds %d",
			dataset, src.Len(), ps.Len())
	}
	if got, want := src.AttrNames(), ps.AttrNames(); len(got) != len(want) {
		return fmt.Errorf("urbane: segment source for %q has %d attributes, set has %d",
			dataset, len(got), len(want))
	}
	// Non-invalidating: segment-backed execution is byte-identical to the
	// in-RAM scan (the block walk preserves point order and the engine is
	// unchanged), so cached responses stay correct.
	f.sources[dataset] = src
	return nil
}

// PointSource implements query.Catalog: it resolves a data set name
// to its attached segment source, if any.
func (f *Framework) PointSource(name string) (data.PointSource, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	src, ok := f.sources[name]
	return src, ok
}

// PointSourceNames returns the data set names with attached segment sources
// (unordered).
func (f *Framework) PointSourceNames() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	names := make([]string, 0, len(f.sources))
	for n := range f.sources {
		names = append(names, n)
	}
	return names
}

// PointSet implements query.Catalog.
func (f *Framework) PointSet(name string) (*data.PointSet, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ps, ok := f.points[name]
	return ps, ok
}

// RegionSet implements query.Catalog.
func (f *Framework) RegionSet(name string) (*data.RegionSet, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	rs, ok := f.regions[name]
	return rs, ok
}

// PointSetNames returns the registered data set names (unordered).
func (f *Framework) PointSetNames() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	names := make([]string, 0, len(f.points))
	for n := range f.points {
		names = append(names, n)
	}
	return names
}

// RegionSetNames returns the registered layer names (unordered).
func (f *Framework) RegionSetNames() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	names := make([]string, 0, len(f.regions))
	for n := range f.regions {
		names = append(names, n)
	}
	return names
}

// QueryContext parses, plans, and executes a SQL-like statement under the
// request context, tracing each stage.
func (f *Framework) QueryContext(ctx context.Context, stmt string) (*query.Execution, error) {
	return query.RunContext(ctx, stmt, f.routing(), f)
}

// ExecuteContext routes an already-built request through the planner's
// engine chain and runs it under the request context: raster execution is
// canceled mid-flight when ctx ends; cube lookups are fast enough that only
// an up-front check applies.
func (f *Framework) ExecuteContext(ctx context.Context, req core.Request) (*core.Result, error) {
	_, res, err := f.run(ctx, req)
	return res, err
}

// run is ExecuteContext returning the plan too (its Reason is what
// /api/query reports).
func (f *Framework) run(ctx context.Context, req core.Request) (*query.Plan, *core.Result, error) {
	p, err := f.routing().Route(req, f)
	if err != nil {
		return nil, nil, err
	}
	res, err := p.Joiner.JoinContext(ctx, p.Request)
	return p, res, err
}

// cubeServable reports whether the request routes to a registered cube.
func (f *Framework) cubeServable(req core.Request) bool {
	p, err := f.routing().Route(req, f)
	if err != nil {
		return false
	}
	_, ok := p.Joiner.(*cube.Cube)
	return ok
}

// rasterJoiner returns the planner's raster engine.
func (f *Framework) rasterJoiner() *core.RasterJoin {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.planner.Raster
}
