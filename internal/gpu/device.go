// Package gpu implements a deterministic software stand-in for the GPU
// rendering pipeline Raster Join targets. It exposes the exact subset of
// OpenGL functionality the paper's implementation uses — render targets
// ("textures"), point and polygon draw calls whose per-fragment work is a
// user-supplied shader function, additive blending, a maximum texture size
// that forces tiled multi-pass rendering, and live render-target gauges.
//
// Substituting a software rasterizer preserves the algorithmic content of
// Raster Join (what is drawn, and how fragments combine) while removing the
// hardware dependency; see DESIGN.md for the substitution argument.
package gpu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/raster"
)

// Device is a software GPU. The zero value is not usable; call New.
type Device struct {
	maxTextureSize int
	spanCacheBytes int64
	spans          *raster.SpanCache

	// Render-target accounting: canvases and pooled textures currently
	// acquired and not yet released. Cancellation hygiene tests assert both
	// gauges return to zero after an aborted join — a leak here is the
	// software analogue of leaking GPU memory.
	liveCanvases atomic.Int64
	liveTextures atomic.Int64

	texMu   sync.Mutex
	texFree map[int][]*Texture // free lists keyed by pixel count
}

// Option configures a Device.
type Option func(*Device)

// WithMaxTextureSize caps render-target dimensions, forcing callers to tile
// larger canvases into multiple passes — the same constraint a real GPU's
// GL_MAX_TEXTURE_SIZE imposes on Raster Join.
func WithMaxTextureSize(n int) Option {
	return func(d *Device) {
		if n > 0 {
			d.maxTextureSize = n
		}
	}
}

// DefaultMaxTextureSize matches a mid-range GPU while keeping the software
// simulation's memory footprint modest.
const DefaultMaxTextureSize = 4096

// DefaultSpanCacheBytes bounds the region span cache: enough for dozens of
// compiled layers at map-view resolutions without pinning real memory.
const DefaultSpanCacheBytes int64 = 64 << 20

// WithSpanCacheBytes sizes the device's region span cache (0 disables it).
// The cache holds compiled polygon rasterizations — scanline span lists —
// keyed by (region-set stamp, transform), so repeated queries over a fixed
// layer replay spans instead of re-scan-converting every polygon.
func WithSpanCacheBytes(n int64) Option {
	return func(d *Device) { d.spanCacheBytes = n }
}

// New returns a ready device.
func New(opts ...Option) *Device {
	d := &Device{maxTextureSize: DefaultMaxTextureSize, spanCacheBytes: DefaultSpanCacheBytes}
	for _, o := range opts {
		o(d)
	}
	d.spans = raster.NewSpanCache(d.spanCacheBytes)
	return d
}

// MaxTextureSize returns the largest canvas dimension the device accepts.
func (d *Device) MaxTextureSize() int { return d.maxTextureSize }

// SpanCache returns the device's region span cache (nil — a valid disabled
// cache — when the device was built with WithSpanCacheBytes(0)).
func (d *Device) SpanCache() *raster.SpanCache { return d.spans }

// LiveCanvases returns the number of canvases acquired and not yet released.
func (d *Device) LiveCanvases() int64 { return d.liveCanvases.Load() }

// LiveTextures returns the number of pooled textures acquired and not yet
// released.
func (d *Device) LiveTextures() int64 { return d.liveTextures.Load() }

// poolClassCap bounds each free list at one tile's textures, a count texture
// and one aggregate texture, so a burst of large renders (two clients'
// concurrent tiles) cannot pin its peak in the pool: at
// 1024 px every pooled texture is 8 MiB of live heap, and live heap sets
// the collector's target. On session_mix (two clients) caps of 8, 4 and 2
// measured RSS peaks of 561–586, 576–581 and 531–550 MB at equal latency.
const poolClassCap = 2

// AcquireTexture returns a cleared w×h texture, reusing a pooled allocation
// of the same pixel count when one is free. Pair with ReleaseTexture; a
// canceled join must still release its textures or the device's live gauge
// reports the leak.
func (d *Device) AcquireTexture(w, h int) *Texture {
	n := w * h
	d.texMu.Lock()
	free := d.texFree[n]
	if l := len(free); l > 0 {
		t := free[l-1]
		d.texFree[n] = free[:l-1]
		d.texMu.Unlock()
		d.liveTextures.Add(1)
		t.W, t.H = w, h
		t.Clear()
		return t
	}
	d.texMu.Unlock()
	d.liveTextures.Add(1)
	return NewTexture(w, h)
}

// ReleaseTexture returns a texture to the pool. Nil is ignored; releasing
// the same texture twice corrupts the pool, so callers release exactly once
// (the core joiners do it through defers that run on both the success and
// the cancellation path).
func (d *Device) ReleaseTexture(t *Texture) {
	if t == nil {
		return
	}
	d.liveTextures.Add(-1)
	n := len(t.Data)
	d.texMu.Lock()
	if d.texFree == nil {
		d.texFree = make(map[int][]*Texture)
	}
	if len(d.texFree[n]) < poolClassCap {
		d.texFree[n] = append(d.texFree[n], t)
	}
	d.texMu.Unlock()
}

// Canvas is a render target bound to a world window: draws against it
// rasterize world-space geometry onto its pixel grid. A Canvas corresponds
// to one framebuffer-object pass in the paper's implementation.
type Canvas struct {
	dev *Device
	// T is the world-to-pixel transform of this render target.
	T raster.Transform
	// m maps point vertices: T's pixel map, whose window a tile of a tiled
	// render narrows (see Tiles).
	m raster.PixelMap

	released atomic.Bool
}

// NewCanvas starts a render pass over a w×h target mapped to the world
// window. It fails when either dimension exceeds the device's maximum
// texture size — callers must tile (see Tiles).
func (d *Device) NewCanvas(world geom.BBox, w, h int) (*Canvas, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("gpu: invalid canvas size %dx%d", w, h)
	}
	if w > d.maxTextureSize || h > d.maxTextureSize {
		return nil, fmt.Errorf("gpu: canvas %dx%d exceeds max texture size %d (tile the render)",
			w, h, d.maxTextureSize)
	}
	d.liveCanvases.Add(1)
	t := raster.NewTransform(world, w, h)
	return &Canvas{dev: d, T: t, m: t.PixelMap()}, nil
}

// PixelMap returns the mapping the canvas's point draws use: pixels of T,
// over T's window less any edge a tile shares with its neighbour.
func (c *Canvas) PixelMap() raster.PixelMap { return c.m }

// Release ends the canvas's render pass, decrementing the device's live
// gauge. Idempotent, so both a deferred release and an explicit one on the
// happy path are safe.
func (c *Canvas) Release() {
	if c == nil || c.released.Swap(true) {
		return
	}
	c.dev.liveCanvases.Add(-1)
}

// Tiles partitions a full-resolution transform into canvas-sized passes and
// invokes fn with each pass's canvas plus the pixel offset of the tile in
// the full grid. This is the multi-pass strategy bounded Raster Join uses
// when its ε-derived resolution exceeds the texture limit. A point on an
// edge two tiles share is drawn by one of them: each canvas maps points
// through raster.Transform.SubMap.
func (d *Device) Tiles(full raster.Transform, fn func(c *Canvas, offX, offY int) error) error {
	step := d.maxTextureSize
	for y0 := 0; y0 < full.H; y0 += step {
		for x0 := 0; x0 < full.W; x0 += step {
			w := min(step, full.W-x0)
			h := min(step, full.H-y0)
			sub := full.Sub(x0, y0, w, h)
			c, err := d.NewCanvas(sub.World, sub.W, sub.H)
			if err != nil {
				return err
			}
			c.m = full.SubMap(x0, y0, w, h)
			err = fn(c, x0, y0)
			c.Release()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// PointShader receives each point fragment: the pixel it landed in and the
// index of the source vertex, mirroring a fragment shader reading per-vertex
// attributes.
type PointShader func(px, py, i int)

// FragmentShader receives each covered pixel of a filled primitive.
type FragmentShader func(px, py int)

// DrawPoints rasterizes n point vertices whose world position is supplied by
// pos. Points outside the canvas window are culled (clipped) without shading.
func (c *Canvas) DrawPoints(n int, pos func(i int) (x, y float64), shader PointShader) {
	m := c.m
	for i := 0; i < n; i++ {
		x, y := pos(i)
		px, py, ok := m.Map(x, y)
		if !ok {
			continue
		}
		shader(px, py, i)
	}
}

// DrawSpans replays precompiled scanline spans — a region's fill or
// interior from raster.CompileRegions. A region's fill visits the fragments
// raster.FillPolygon visits on the geometry the spans were compiled from,
// in the same row-major, left-to-right order.
func (c *Canvas) DrawSpans(spans []raster.Span, shader FragmentShader) {
	for _, s := range spans {
		for px := s.X0; px < s.X1; px++ {
			shader(int(px), int(s.Y))
		}
	}
}

// SumSpans is DrawSpans with the additive polygon-pass shader built in: it
// reads each span as a row slice of the count texture and, when sum is
// non-nil, of the sum texture, and returns the total of the count texels and
// the sum texels added left to right, in DrawSpans' fragment order, to +0.
// No fragment is skipped: an empty pixel's +0 leaves the total's bits alone
// unless the total is -0, which a sum from +0 of texels that are never -0
// cannot be.
func (c *Canvas) SumSpans(spans []raster.Span, count, sum *Texture) (n int64, s float64) {
	for _, sp := range spans {
		i, j := int(sp.Y)*count.W+int(sp.X0), int(sp.Y)*count.W+int(sp.X1)
		cnt := count.Data[i:j]
		if sum == nil {
			for _, v := range cnt {
				n += int64(v)
			}
			continue
		}
		vals := sum.Data[i:j]
		vals = vals[:len(cnt)]
		for x, v := range cnt {
			n += int64(v)
			//lint:ignore floataccum pass 2 must add a region's pixels in fragment order to match the per-pixel fold bit for bit; trip count bounded by the region's pixels
			s += vals[x]
		}
	}
	return n, s
}

// MinMaxSpans is DrawSpans with the MIN/MAX polygon-pass shader built in:
// over the fragments whose count texel is non-zero, in DrawSpans' order, it
// returns the count total and the least and greatest of val's texels, the
// first such fragment's texel starting both. Empty fragments are skipped —
// their texels hold the blend's ±Inf identity. lo and hi are 0 when no
// fragment has a point.
func (c *Canvas) MinMaxSpans(spans []raster.Span, count, val *Texture) (n int64, lo, hi float64) {
	for _, sp := range spans {
		i, j := int(sp.Y)*count.W+int(sp.X0), int(sp.Y)*count.W+int(sp.X1)
		cnt := count.Data[i:j]
		vals := val.Data[i:j]
		vals = vals[:len(cnt)]
		for x, v := range cnt {
			if v == 0 {
				continue
			}
			m := vals[x]
			if n == 0 {
				lo, hi = m, m
			} else {
				if m < lo {
					lo = m
				}
				if m > hi {
					hi = m
				}
			}
			n += int64(v)
		}
	}
	return n, lo, hi
}
