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
// implements core.ContextJoiner by delegating the tile pipeline to the
// wrapped raster joiner's scatter driver and providing the fan-out: one
// goroutine per shard per tile, request-context propagation, deterministic
// first-error selection, and per-shard gauges. Safe for concurrent use.
type Coordinator struct {
	raster *core.RasterJoin
	n      int
	nodes  []*node

	mu      sync.Mutex
	layouts map[string]*Layout
}

// New returns a coordinator splitting execution across n in-process shard
// executors on the given raster joiner.
func New(raster *core.RasterJoin, n int) *Coordinator {
	if n < 1 {
		n = 1
	}
	c := &Coordinator{raster: raster, n: n, layouts: make(map[string]*Layout)}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, newNode(i))
	}
	return c
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return c.n }

// Name reports the wrapped joiner's name: sharded execution is
// byte-identical to the local path, so the served Algorithm string — part
// of cached response bodies — must not change with the topology.
func (c *Coordinator) Name() string { return c.raster.Name() }

// Join implements core.Joiner.
func (c *Coordinator) Join(req core.Request) (*core.Result, error) {
	return c.JoinContext(context.Background(), req)
}

// JoinContext plans the layout for the request's source snapshot and runs
// the scatter driver over it.
func (c *Coordinator) JoinContext(ctx context.Context, req core.Request) (*core.Result, error) {
	src := req.Data()
	lt := c.layout(src)
	return c.raster.JoinScattered(ctx, req, &scatterPlan{c: c, layout: lt})
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

// Patch re-keys the named dataset's layout to a grown snapshot keeping the
// cuts fixed, so appended points route to the shard that already owns their
// x range. A dataset with no cached layout is skipped (it will build lazily
// with fresh cuts on first query).
func (c *Coordinator) Patch(name string, src data.PointSource) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	lt, ok := c.layouts[name]
	if !ok {
		return false
	}
	c.layouts[name] = lt.Patch(src)
	return true
}

// Layouts returns the number of cached per-dataset layouts.
func (c *Coordinator) Layouts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.layouts)
}

// Kill marks shard i down: new passes are refused with ErrUnavailable and
// in-flight passes are aborted. Out-of-range indices are ignored.
func (c *Coordinator) Kill(i int) {
	if i >= 0 && i < c.n {
		c.nodes[i].kill()
	}
}

// Restart brings shard i back.
func (c *Coordinator) Restart(i int) {
	if i >= 0 && i < c.n {
		c.nodes[i].restart()
	}
}

// Down reports whether shard i is marked down.
func (c *Coordinator) Down(i int) bool {
	if i < 0 || i >= c.n {
		return false
	}
	c.nodes[i].mu.Lock()
	defer c.nodes[i].mu.Unlock()
	return c.nodes[i].down
}

// Stats snapshots every shard's gauges in shard order.
func (c *Coordinator) Stats() []NodeStats {
	out := make([]NodeStats, c.n)
	for i, nd := range c.nodes {
		out[i] = nd.stats()
	}
	return out
}

// scatterPlan binds one query's layout to the coordinator's executors.
type scatterPlan struct {
	c      *Coordinator
	layout *Layout
}

// Cuts implements core.ScatterPlan.
func (p *scatterPlan) Cuts() []float64 { return p.layout.Cuts }

// Scatter fans the tile spec out to every shard and collects the partials
// in shard order. On failure the error is deterministic: the request
// context's own error wins, then the lowest-indexed shard's non-cancellation
// error — never whichever goroutine lost the race — and sibling passes are
// canceled as soon as any shard fails.
func (p *scatterPlan) Scatter(ctx context.Context, spec *core.ShardSpec) ([]*core.ShardPartial, error) {
	n := p.layout.N
	partials := make([]*core.ShardPartial, n)
	errs := make([]error, n)

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		nd := p.c.nodes[i]
		xlo, xhi := p.layout.Range(i)
		blocks := p.layout.Blocks[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pt, err := nd.run(sctx, p.c.raster, spec, xlo, xhi, blocks)
			partials[i], errs[i] = pt, err
			if err != nil {
				cancel() // stop siblings; their ctx.Canceled is discounted below
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
	// the sibling-cancellation echo. The guard below it keeps a pure
	// cancellation storm (all errors Canceled yet the request context
	// lives) from being swallowed.
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
	for i := range partials {
		p.c.nodes[i].merged.Add(1)
	}
	return partials, nil
}
