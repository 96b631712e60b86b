package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/geoblocks"
	"repro/internal/tcache"
	"repro/internal/trace"
)

// Catalog resolves data set names to their contents. internal/urbane's
// registry implements it.
type Catalog interface {
	PointSet(name string) (*data.PointSet, bool)
	RegionSet(name string) (*data.RegionSet, bool)
	// PointSource resolves a data set name to the columnar block source
	// attached to it (e.g. an out-of-core segment store), if any. See
	// Planner.Route.
	PointSource(name string) (data.PointSource, bool)
}

// Plan is a routed, ready-to-execute query.
type Plan struct {
	Query   Query
	Request core.Request
	Joiner  core.Joiner
	// Engine names the link of the routing chain that took the request:
	// "cube", "geoblocks", "slabs" or "raster".
	Engine string
	// Reason explains the routing decision for observability.
	Reason string
}

// Planner routes queries: pre-aggregation cubes answer their canned family
// in microseconds; everything else — ad-hoc filters, foreign layers,
// misaligned windows — goes to Raster Join, which is the paper's point.
//
// The fields configure one ordered engine chain (see chain); Route walks it.
// A planner shared between goroutines is never edited in place: the owner
// swaps in a modified copy (internal/urbane does, under its lock), so a
// routed query only ever reads the snapshot it started with.
type Planner struct {
	// Cubes are consulted in order; the first that can serve wins.
	Cubes []*cube.Cube
	// GeoBlocks, when non-nil, answers unfiltered arbitrary-polygon
	// aggregation from the pre-aggregated hierarchy (interior cells from
	// stored aggregates, boundary fringe refined exactly).
	GeoBlocks *geoblocks.Engine
	// Slabs, when non-nil, answers slab-aligned time-windowed aggregation
	// as a chronological fold of cached slab partials (incremental temporal
	// view maintenance). GeoBlocks rejects time-filtered requests, so the
	// two never compete.
	Slabs *tcache.Joiner
	// Raster answers everything the engines before it refuse. Required.
	Raster *core.RasterJoin
}

// NewPlanner returns a planner over the given raster joiner.
func NewPlanner(raster *core.RasterJoin) *Planner {
	return &Planner{Raster: raster}
}

// engine is one link of the routing chain. canServe returns nil when the
// engine can answer the request and its refusal reason otherwise; a nil
// canServe serves everything.
type engine struct {
	name     string
	joiner   core.Joiner
	canServe func(core.Request) error
	reason   string
}

// chain is the routing order, written once: cubes, geoblocks, slabs,
// raster. Adding or removing an engine is one line here.
func (pl *Planner) chain() []engine {
	ch := make([]engine, 0, len(pl.Cubes)+3)
	for _, c := range pl.Cubes {
		ch = append(ch, engine{"cube", c, c.CanServe, "canned query served from pre-aggregation"})
	}
	if pl.GeoBlocks != nil {
		ch = append(ch, engine{"geoblocks", pl.GeoBlocks, pl.GeoBlocks.CanServe,
			"unfiltered polygon aggregation: geoblocks hierarchy, or raster join when its boundary fringe costs more"})
	}
	if pl.Slabs != nil {
		ch = append(ch, engine{"slabs", pl.Slabs, pl.Slabs.CanServe,
			"time-windowed aggregation folded from cached slab partials"})
	}
	if pl.Raster != nil {
		ch = append(ch, engine{"raster", pl.Raster, nil, "ad-hoc query routed to raster join"})
	}
	return ch
}

// Route is the one routing decision every execution path shares: it
// attaches the catalog's block source for the request's data set (the single
// place a request learns it is segment-backed — the raster engine then
// executes block-at-a-time with zone-map pruning, while the in-RAM set stays
// alongside for engines that need random access), validates the request, and
// hands it to the first engine of the chain that can serve it.
func (pl *Planner) Route(req core.Request, cat Catalog) (*Plan, error) {
	if req.Source == nil && req.Points != nil {
		if src, found := cat.PointSource(req.Points.Name); found {
			req.Source = src
		}
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	for _, e := range pl.chain() {
		if e.canServe == nil || e.canServe(req) == nil {
			return &Plan{Request: req, Joiner: e.joiner, Engine: e.name, Reason: e.reason}, nil
		}
	}
	return nil, errors.New("query: no engine can serve the request")
}

// Plan resolves names against the catalog and routes the query.
func (pl *Planner) Plan(q Query, cat Catalog) (*Plan, error) {
	ps, ok := cat.PointSet(q.Points)
	if !ok {
		return nil, fmt.Errorf("query: unknown point set %q", q.Points)
	}
	rs, ok := cat.RegionSet(q.Regions)
	if !ok {
		return nil, fmt.Errorf("query: unknown region set %q", q.Regions)
	}
	p, err := pl.Route(core.Request{
		Points:  ps,
		Regions: rs,
		Agg:     q.Agg,
		Attr:    q.Attr,
		Filters: q.Filters,
		Time:    q.Time,
	}, cat)
	if err != nil {
		return nil, err
	}
	p.Query = q
	return p, nil
}

// Execution is a timed query result.
type Execution struct {
	Plan    *Plan
	Result  *core.Result
	Elapsed time.Duration
}

// ExecuteContext runs the plan under the request context: a joiner that
// supports mid-flight cancellation is aborted when ctx ends, and the
// execute stage is recorded on the context's trace.
func ExecuteContext(ctx context.Context, p *Plan) (*Execution, error) {
	sp := trace.FromContext(ctx).Start("execute")
	defer sp.End()
	start := time.Now()
	res, err := p.Joiner.JoinContext(ctx, p.Request)
	if err != nil {
		// Cancellation and deadline errors pass through unwrapped so the
		// server can map them to their HTTP statuses.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("query: executing with %s: %w", p.Joiner.Name(), err)
	}
	return &Execution{Plan: p, Result: res, Elapsed: time.Since(start)}, nil
}

// RunContext parses, plans, and executes a statement under the request
// context, tracing each stage (parse, plan, execute).
func RunContext(ctx context.Context, stmt string, pl *Planner, cat Catalog) (*Execution, error) {
	tr := trace.FromContext(ctx)
	sp := tr.Start("parse")
	q, err := Parse(stmt)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("plan")
	plan, err := pl.Plan(q, cat)
	sp.End()
	if err != nil {
		return nil, err
	}
	return ExecuteContext(ctx, plan)
}
