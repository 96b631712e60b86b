package core

import (
	"context"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/raster"
	"repro/internal/trace"
)

// This file implements the compute halves of spatially sharded execution:
// the per-shard partial point pass each shard runs over its block
// assignment, and the scatter-gather driver the coordinator runs on top of
// the ordinary tile pipeline.
//
// The byte-identity argument, in full (see DESIGN.md "Deterministic
// shard-order merge"):
//
// Shards own half-open world-x ranges [xlo, xhi) cut at cell boundaries, so
// every point belongs to exactly one shard. The canvas transform is
// monotone in x, so a shard's points land in a contiguous band of pixel
// columns, and two shards' points can meet only in the single column that
// contains the cut between them — the "straddle" column. For every other
// column, one shard owns every fragment of every pixel, and because the
// shard scans its blocks in ascending index order the per-pixel fragment
// sequence is exactly the unsharded scan's sequence restricted to that
// pixel: the float folds (+=, min, max) run over the same values in the
// same order and produce the same bits. Straddle columns are excluded from
// the shard-local folds; their fragments come back raw, tagged with the
// global point index, and the coordinator replays them through the
// same pass-1 shader in ascending index order — again the unsharded
// per-pixel order. After the gather the textures, the hit bitmap and each
// pixel's boundary observations are bit-for-bit what a local pass 1 would
// have produced, and passes 2 and 3 run on the same tile state either way, so the entire
// Result is byte-identical at any shard count.

// shardFrag is one raw fragment from a straddle column: the pixel it landed
// in, the observation, and the global point index the coordinator replays
// by.
type shardFrag struct {
	idx    int64
	px, py int32
	obs
}

// ShardPartial is one shard's contribution to one tile: pass-1 targets
// limited to the shard's owned pixel-column band (cells in straddle columns
// inside the band are never written, and the boundary observation lists
// hold owned columns only) and straddle-column fragments in ascending
// global index order (targets.frags).
type ShardPartial struct {
	targets
}

// ScatterPlan is what the scatter-gather driver needs from a coordinator:
// the shard cut positions (to derive straddle columns per tile) and the
// fan-out itself. Scatter must return one partial per shard, in shard
// order, or an error; a non-nil error must already be the deterministic
// first failure (see internal/shard).
type ScatterPlan interface {
	Cuts() []float64
	Scatter(ctx context.Context, spec *ShardSpec) ([]*ShardPartial, error)
}

// ShardSpec describes one canvas tile's partial point pass.
type ShardSpec struct {
	Req Request
	// Map is the pixel map the tile's canvas draws points through.
	Map raster.PixelMap
	// AttrIdx is the aggregated attribute's column position (-1 when the
	// aggregate needs none).
	AttrIdx int
	// Straddle marks the tile-local pixel columns containing a shard cut:
	// excluded from shard-local folds, returned as raw fragments.
	Straddle []bool
	// Mask marks the tile's boundary pixels, whose points are kept as
	// observations; nil in approximate mode.
	Mask *raster.Bitmap
}

// ShardPointPass runs one shard's partial point pass: scan the assigned
// blocks (ascending), keep the points the shard owns (world-x in
// [xlo, xhi)), and fold them through the shared pass-1 loop into
// band-limited targets — except fragments in straddle columns, which are
// returned raw with their global point index. The context and the
// `core.pointpass` fault site are polled once per batch, exactly like the
// local pass.
func (r *RasterJoin) ShardPointPass(ctx context.Context, spec *ShardSpec, xlo, xhi float64, blocks []int) (*ShardPartial, error) {
	sc, err := r.newScan(spec.Req)
	if err != nil {
		return nil, err
	}
	m := spec.Map
	sc.setWorld(m.Bounds())
	sc.own(blocks, xlo, xhi)
	w, h := m.W, m.H

	// The shard's owned band: its points have x in [xlo, xhi) ∩ window, so
	// by the monotonicity of PixelMap.Col — the property the
	// straddle-column argument rests on — their columns lie in
	// [colLo, colHi).
	colLo, colHi := 0, w
	if !math.IsInf(xlo, -1) && xlo > m.MinX {
		if xlo > m.MaxX {
			colLo = w // nothing visible
		} else {
			colLo = m.Col(xlo)
		}
	}
	if !math.IsInf(xhi, 1) && xhi < m.MaxX {
		if xhi < m.MinX {
			colHi = 0
		} else {
			colHi = m.Col(xhi) + 1
		}
	}
	if colHi < colLo {
		colHi = colLo
	}

	// Band buffers are plain allocations, not pooled textures: a partial
	// dropped on a sibling's failure is simply garbage.
	p := &ShardPartial{targets: newTargets(spec.Req.Agg, colLo, colHi-colLo, h,
		spec.Mask, newTexture)}
	p.straddle = spec.Straddle
	if err = r.pass1(ctx, &p.targets, m, sc, sc.Lo, sc.Hi, spec.AttrIdx, "shard.batches"); err != nil {
		return nil, err
	}
	return p, nil
}

// JoinScattered is JoinContext with the point pass scattered across
// shards: per canvas tile the driver fans out through plan.Scatter,
// merges the partials in ascending shard order, replays straddle fragments
// in global point-index order, and resolves the merged tile like any other.
func (r *RasterJoin) JoinScattered(ctx context.Context, req Request, plan ScatterPlan) (*Result, error) {
	return r.join(ctx, req, plan)
}

// gather is pass 1 scattered: fan the tile's point pass out through plan
// and merge the partials into t, leaving textures, hit bits and each pixel's
// boundary observations bit-for-bit what a local drawScan would have
// produced.
func (t *tile) gather(ctx context.Context, req Request, attrIdx int, plan ScatterPlan) error {
	w, h := t.c.T.W, t.c.T.H
	tr := trace.FromContext(ctx)

	// Straddle columns: the pixel column each in-window cut falls into. By
	// monotonicity of the transform these are the only columns where two
	// shards' points can meet.
	m := t.c.PixelMap()
	straddle := make([]bool, w)
	for _, cut := range plan.Cuts() {
		if cut >= m.MinX && cut <= m.MaxX {
			straddle[m.Col(cut)] = true
		}
	}

	span := tr.Start("shard.scatter")
	partials, err := plan.Scatter(ctx, &ShardSpec{
		Req:      req,
		Map:      m,
		AttrIdx:  attrIdx,
		Straddle: straddle,
		Mask:     t.mask,
	})
	span.End()
	if err != nil {
		return err
	}

	span = tr.Start("shard.gather")
	defer span.End()
	// `shard.gather` is a fault injection site between the scatter and the
	// merge: an injected failure here proves the release discipline of the
	// gather path.
	if err := fault.Inject(ctx, "shard.gather"); err != nil {
		return err
	}

	// Merge bands in ascending shard order. Owned interior columns are
	// written by exactly one shard, so this is a copy, not a fold.
	var frags []shardFrag
	for _, p := range partials {
		if p == nil {
			continue
		}
		bandW := p.count.W
		for px := p.x0; px < p.x0+bandW; px++ {
			if straddle[px] {
				continue
			}
			for py := 0; py < h; py++ {
				bi := py*bandW + (px - p.x0)
				cnt := p.count.Data[bi]
				if cnt == 0 {
					continue
				}
				ti := py*w + px
				t.count.Data[ti] = cnt
				t.hit.Set(px, py)
				switch {
				case t.sum != nil:
					t.sum.Data[ti] = p.sum.Data[bi]
				case t.min != nil:
					t.min.Data[ti] = p.min.Data[bi]
				case t.max != nil:
					t.max.Data[ti] = p.max.Data[bi]
				}
			}
		}
		for y, row := range p.rows {
			t.rows[y] = append(t.rows[y], row...)
		}
		frags = append(frags, p.frags...)
	}

	// Replay straddle fragments in ascending global point index — the
	// unsharded per-pixel fragment order — through the same pass-1 shader.
	// Indices are unique (each point has one owner), so the sort is total
	// and the replay deterministic.
	sort.Slice(frags, func(i, j int) bool { return frags[i].idx < frags[j].idx })
	//lint:ignore ctxpoll the replay covers one pixel column per shard cut, and resolve polls ctx right after
	for _, f := range frags {
		t.shade(int(f.px), int(f.py), f.x, f.y, f.v)
	}
	return nil
}
