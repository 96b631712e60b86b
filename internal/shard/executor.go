package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// ErrUnavailable is returned when a shard executor is down (killed by chaos
// or an operator) — the coordinator surfaces it instead of a silently
// partial answer, and the server maps it to 503 with Retry-After.
var ErrUnavailable = errors.New("shard: executor unavailable")

// NodeStats snapshots one executor slot for /api/stats.
type NodeStats struct {
	Shard         int   `json:"shard"`
	Down          bool  `json:"down"`
	Inflight      int64 `json:"inflight"`
	Served        int64 `json:"served"`
	Refused       int64 `json:"refused"`
	Merged        int64 `json:"merged"`
	Points        int64 `json:"points"`
	BlocksScanned int64 `json:"blocksScanned"`
	BlocksPruned  int64 `json:"blocksPruned"`
}

// node is one executor slot: its liveness and its gauges. Kill marks the
// slot down and cancels every in-flight pass; Restart brings it back
// (executors are stateless, so a restart is a fresh slot).
type node struct {
	idx int

	mu       sync.Mutex
	down     bool
	nextID   uint64
	inFlight map[uint64]context.CancelFunc

	inflight atomic.Int64
	served   atomic.Int64
	refused  atomic.Int64
	merged   atomic.Int64
	points   atomic.Int64
	scanned  atomic.Int64
	pruned   atomic.Int64
}

func newNode(idx int) *node {
	return &node{idx: idx, inFlight: make(map[uint64]context.CancelFunc)}
}

// run executes one partial pass (core's ShardPointPass) on the node,
// honoring kills: a down node refuses immediately, and a kill landing
// mid-pass cancels the pass and is reported as ErrUnavailable (an honest
// degradation, never a silent partial) unless the request itself was
// already canceled.
func (nd *node) run(ctx context.Context, rj *core.RasterJoin, spec *core.ShardSpec, xlo, xhi float64, blocks []int) (*core.ShardPartial, error) {
	nd.mu.Lock()
	if nd.down {
		nd.mu.Unlock()
		nd.refused.Add(1)
		return nil, ErrUnavailable
	}
	kctx, cancel := context.WithCancel(ctx)
	id := nd.nextID
	nd.nextID++
	nd.inFlight[id] = cancel
	nd.mu.Unlock()

	nd.inflight.Add(1)
	defer func() {
		nd.inflight.Add(-1)
		nd.mu.Lock()
		delete(nd.inFlight, id)
		nd.mu.Unlock()
		cancel()
	}()

	p, err := rj.ShardPointPass(kctx, spec, xlo, xhi, blocks)
	if err != nil {
		nd.mu.Lock()
		down := nd.down
		nd.mu.Unlock()
		if down && ctx.Err() == nil {
			nd.refused.Add(1)
			return nil, ErrUnavailable
		}
		return nil, err
	}
	nd.served.Add(1)
	nd.points.Add(p.Points)
	nd.scanned.Add(p.Scanned)
	nd.pruned.Add(p.Pruned)
	return p, nil
}

// kill marks the node down and aborts in-flight passes.
func (nd *node) kill() {
	nd.mu.Lock()
	nd.down = true
	cancels := make([]context.CancelFunc, 0, len(nd.inFlight))
	for _, c := range nd.inFlight {
		cancels = append(cancels, c)
	}
	nd.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// restart brings the node back.
func (nd *node) restart() {
	nd.mu.Lock()
	nd.down = false
	nd.mu.Unlock()
}

func (nd *node) stats() NodeStats {
	nd.mu.Lock()
	down := nd.down
	nd.mu.Unlock()
	return NodeStats{
		Shard:         nd.idx,
		Down:          down,
		Inflight:      nd.inflight.Load(),
		Served:        nd.served.Load(),
		Refused:       nd.refused.Load(),
		Merged:        nd.merged.Load(),
		Points:        nd.points.Load(),
		BlocksScanned: nd.scanned.Load(),
		BlocksPruned:  nd.pruned.Load(),
	}
}
