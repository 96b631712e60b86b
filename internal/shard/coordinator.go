package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
)

// Coordinator is the scatter-gather front of sharded execution. It
// implements core.Joiner by delegating the tile pipeline to the
// wrapped raster joiner's scatter driver and providing the fan-out: one
// goroutine per shard per tile, request-context propagation and
// deterministic first-error selection. Safe for concurrent use.
type Coordinator struct {
	raster *core.RasterJoin
	n      int

	mu      sync.Mutex
	layouts map[string]*Layout
}

// New returns a coordinator splitting execution across n in-process shard
// passes on the given raster joiner.
func New(raster *core.RasterJoin, n int) *Coordinator {
	if n < 1 {
		n = 1
	}
	return &Coordinator{raster: raster, n: n, layouts: make(map[string]*Layout)}
}

// Name reports the wrapped joiner's name: sharded execution is
// byte-identical to the local path, so the Algorithm string must not
// change with the topology.
func (c *Coordinator) Name() string { return c.raster.Name() }

// JoinContext plans the layout for the request's source snapshot and runs
// the scatter driver over it.
func (c *Coordinator) JoinContext(ctx context.Context, req core.Request) (*core.Result, error) {
	src := req.Data()
	lt := c.layout(src)
	return c.raster.JoinScattered(ctx, req, &scatterPlan{raster: c.raster, layout: lt})
}

// layout returns the cached layout for the source's current snapshot,
// building it from zone maps on first use. Keyed by dataset name and
// validated by stamp: a snapshot swap (append, segment attach) rebuilds.
func (c *Coordinator) layout(src data.PointSource) *Layout {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lt, ok := c.layouts[src.Name()]; ok && lt.Stamp == src.Stamp() {
		return lt
	}
	lt := Build(src, c.n)
	c.layouts[src.Name()] = lt
	return lt
}

// scatterPlan binds one query's layout to the raster joiner's shard pass.
type scatterPlan struct {
	raster *core.RasterJoin
	layout *Layout
}

// Cuts implements core.ScatterPlan.
func (p *scatterPlan) Cuts() []float64 { return p.layout.Cuts }

// Scatter fans the tile spec out to every shard and collects the partials
// in shard order. On failure the error is deterministic: the request
// context's own error wins, then the lowest-indexed shard's non-cancellation
// error — never whichever goroutine lost the race. A failing shard cancels
// only the shards above it: they cannot hold a lower-indexed error, while a
// shard below it must reach its own outcome, or a sibling's cancellation
// could mask the error the rule has to report.
func (p *scatterPlan) Scatter(ctx context.Context, spec *core.ShardSpec) ([]*core.ShardPartial, error) {
	n := p.layout.N
	partials := make([]*core.ShardPartial, n)
	errs := make([]error, n)

	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		xlo, xhi := p.layout.Range(i)
		blocks := p.layout.Blocks[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pt, err := p.raster.ShardPointPass(ctxs[i], spec, xlo, xhi, blocks)
			partials[i], errs[i] = pt, err
			if err != nil {
				for _, cancel := range cancels[i+1:] {
					cancel() // their ctx.Canceled is discounted below
				}
			}
		}(i)
	}
	wg.Wait()

	// The request's own termination (client gone, deadline) outranks any
	// shard-local failure — the server maps it to 499/504.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Deterministic first error: lowest shard index whose failure is not
	// the sibling-cancellation echo. The guard below it keeps a pass that
	// itself returned Canceled while the request context lives from being
	// swallowed.
	for i, err := range errs {
		if err == nil || errors.Is(err, context.Canceled) {
			continue
		}
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return partials, nil
}
