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
	"math"
	"slices"
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

	texMu    sync.Mutex
	texFree  map[int]*freeClass // free lists keyed by pixel count
	texBytes int64              // texel bytes held in texFree
	releases uint64             // texture releases so far: the pool's clock
}

// freeClass is the free list of one pixel count, and the pool clock at its
// latest release.
type freeClass struct {
	free     []freeTexture
	released uint64
}

// freeTexture is a pooled texture and what the pool knows of its texels:
// when marked, every one holds fill, bit for bit; otherwise, anything.
type freeTexture struct {
	t      *Texture
	fill   float64
	marked bool
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
// The two a completed join releases come back marked with the values their
// texels hold (0, or a MIN/MAX identity), so the next join of the same
// canvas size takes both without a clear.
const poolClassCap = 2

// poolBytes bounds the texels the pool holds over all its size classes. A
// canvas size is a class, and ad-hoc polygons or rectangles each bring a
// size of their own, so without a bound the pool would keep two textures
// of every size it ever served. Past the bound it drops the whole class
// released least recently: a class in steady use is released on every
// join and stays. Eight classes at 1024 px fit.
const poolBytes = 128 << 20

// AcquireTexture returns a w×h texture whose every texel is 0: see
// AcquireTextureFilled.
func (d *Device) AcquireTexture(w, h int) *Texture { return d.AcquireTextureFilled(w, h, 0) }

// AcquireTextureFilled returns a w×h texture whose every texel holds v,
// reusing a pooled allocation of the same pixel count when one is free. It
// prefers one released marked with v (ReleaseTextureFilled), which it hands
// out as it is; any other it fills first — clears, for 0. Pair with
// ReleaseTexture or ReleaseTextureFilled; a canceled join must still release
// its textures or the device's live gauge reports the leak.
func (d *Device) AcquireTextureFilled(w, h int, v float64) *Texture {
	n, bits := w*h, math.Float64bits(v)
	d.liveTextures.Add(1)
	f := freeTexture{marked: true} // a new texture: every texel 0
	d.texMu.Lock()
	if c := d.texFree[n]; c != nil {
		i := len(c.free) - 1
		for j := i; j >= 0; j-- {
			if c.free[j].marked && math.Float64bits(c.free[j].fill) == bits {
				i = j
				break
			}
		}
		f = c.free[i]
		c.free = slices.Delete(c.free, i, i+1)
		d.texBytes -= texelBytes(n)
		if len(c.free) == 0 {
			delete(d.texFree, n)
		}
	}
	d.texMu.Unlock()
	if f.t == nil {
		f.t = NewTexture(w, h)
	}
	t := f.t
	t.W, t.H = w, h
	switch {
	case f.marked && math.Float64bits(f.fill) == bits:
	case bits == 0:
		t.Clear()
	default:
		t.Fill(v)
	}
	return t
}

// ReleaseTexture returns a texture to the pool unmarked: whatever its texels
// hold, the next acquire clears or fills it. Nil is ignored; releasing the
// same texture twice corrupts the pool, so callers release exactly once (the
// core joiners do it through defers that run on both the success and the
// cancellation path).
func (d *Device) ReleaseTexture(t *Texture) { d.release(freeTexture{t: t}) }

// ReleaseTextureFilled is ReleaseTexture for a texture whose every texel
// holds v, bit for bit: the pool marks it, and the next acquire of v takes
// it without a clear. A caller that cannot vouch for every texel — one that
// stopped midway on an error or a cancellation, or drew outside a join's
// own clean-up — releases through ReleaseTexture: a wrong mark hands the
// next join a dirty texture.
func (d *Device) ReleaseTextureFilled(t *Texture, v float64) {
	d.release(freeTexture{t: t, fill: v, marked: true})
}

// release files f in its free list, unless the list is full, then drops
// the classes released least recently until the pool is within poolBytes.
func (d *Device) release(f freeTexture) {
	if f.t == nil {
		return
	}
	d.liveTextures.Add(-1)
	n := len(f.t.Data)
	d.texMu.Lock()
	defer d.texMu.Unlock()
	if d.texFree == nil {
		d.texFree = make(map[int]*freeClass)
	}
	c := d.texFree[n]
	if c == nil {
		c = &freeClass{}
		d.texFree[n] = c
	}
	d.releases++
	c.released = d.releases
	if len(c.free) < poolClassCap {
		c.free = append(c.free, f)
		d.texBytes += texelBytes(n)
	}
	for d.texBytes > poolBytes {
		oldest := n
		for m, o := range d.texFree {
			if o.released < d.texFree[oldest].released {
				oldest = m
			}
		}
		d.texBytes -= int64(len(d.texFree[oldest].free)) * texelBytes(oldest)
		delete(d.texFree, oldest)
	}
}

// texelBytes is the size of an n-pixel texture's texels.
func texelBytes(n int) int64 { return int64(n) * 8 }

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
// raster.FillPolygonSpans covers on the geometry the spans were compiled from,
// in the same row-major, left-to-right order.
func (c *Canvas) DrawSpans(spans []raster.Span, shader FragmentShader) {
	for _, s := range spans {
		for px := s.X0; px < s.X1; px++ {
			shader(int(px), int(s.Y))
		}
	}
}
