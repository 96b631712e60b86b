// Flagged fixture for poolleak: acquisitions that miss a release on at
// least one path. The device/canvas types are local stand-ins — matching is
// by method name, so the fixture needs no internal/gpu import.
package a

import (
	"context"
	"errors"
)

type Texture struct{ Data []float64 }

type Canvas struct{}

func (c *Canvas) Release()         {}
func (c *Canvas) DrawPoints(n int) {}

type Device struct{}

func (d *Device) AcquireTexture(w, h int) *Texture { return &Texture{} }
func (d *Device) ReleaseTexture(t *Texture)        {}
func (d *Device) NewCanvas(w, h int) (*Canvas, error) {
	if w < 1 || h < 1 {
		return nil, errors.New("bad size")
	}
	return &Canvas{}, nil
}

func doWork(ctx context.Context) error { return ctx.Err() }

// leakOnErrorPath releases only on the happy path: the early error return
// leaks the texture. This is exactly the seeded-leak shape the acceptance
// test requires the CFG path analysis to catch.
func leakOnErrorPath(ctx context.Context, d *Device) error {
	tex := d.AcquireTexture(64, 64) // want "texture acquired here is not released on every path"
	if err := doWork(ctx); err != nil {
		return err // leak: tex still live here
	}
	d.ReleaseTexture(tex)
	return nil
}

// leakOnAbortBranch polls ctx and forgets the release on the abort branch.
func leakOnAbortBranch(ctx context.Context, d *Device) error {
	tex := d.AcquireTexture(8, 8) // want "texture acquired here is not released on every path"
	for i := 0; i < 100; i++ {
		if ctx.Err() != nil {
			return ctx.Err() // leak: abort path skips the release
		}
	}
	d.ReleaseTexture(tex)
	return nil
}

// leakCanvasOneBranch releases the canvas on one switch arm only.
func leakCanvasOneBranch(d *Device, mode int) error {
	c, err := d.NewCanvas(32, 32) // want "canvas acquired here is not released on every path"
	if err != nil {
		return err // clean: the err != nil edge means c was never acquired
	}
	switch mode {
	case 0:
		c.Release()
	case 1:
		c.DrawPoints(10) // leak: this arm never releases
	}
	return nil
}

// leakNoReleaseAtAll acquires and simply forgets.
func leakNoReleaseAtAll(d *Device) {
	tex := d.AcquireTexture(4, 4) // want "texture acquired here is not released on every path"
	_ = tex.Data
}

// leakDeferRegisteredTooLate defers the release after a possible early
// return, so the early path never registers it.
func leakDeferRegisteredTooLate(ctx context.Context, d *Device) error {
	tex := d.AcquireTexture(16, 16) // want "texture acquired here is not released on every path"
	if ctx.Err() != nil {
		return ctx.Err() // leak: the defer below was never reached
	}
	defer d.ReleaseTexture(tex)
	return doWork(ctx)
}

// suppressedLeak shows the escape hatch: the finding suppresses with an
// analyzer-named, reasoned directive (and analysistest verifies no
// diagnostic survives here).
func suppressedLeak(d *Device) *Texture {
	//lint:ignore poolleak ownership intentionally parked in a package global for this fixture
	tex := d.AcquireTexture(2, 2)
	keep = tex.Data
	return nil
}

var keep []float64

// leakBlockDecodeAbort models the segment read path: a scratch texture
// held across per-block decodes, leaked when a corrupt block's error
// return skips the release.
func leakBlockDecodeAbort(d *Device, blocks [][]byte) error {
	tex := d.AcquireTexture(32, 32) // want "texture acquired here is not released on every path"
	for _, b := range blocks {
		if len(b) < 5 {
			return errors.New("truncated block") // leak: decode abort skips the release
		}
		tex.Data = append(tex.Data, float64(b[0]))
	}
	d.ReleaseTexture(tex)
	return nil
}

// leakRefinementAbort models the geoblocks-style fringe-refinement loop:
// a scratch canvas held across per-cell work, leaked when the
// stride-amortized cancellation poll aborts mid-loop.
func leakRefinementAbort(ctx context.Context, d *Device, fringe []int) error {
	c, err := d.NewCanvas(64, 64) // want "canvas acquired here is not released on every path"
	if err != nil {
		return err
	}
	for i, cell := range fringe {
		if i%64 == 0 && ctx.Err() != nil {
			return ctx.Err() // leak: abort path skips the release
		}
		c.DrawPoints(cell)
	}
	c.Release()
	return nil
}

// leakSlabFoldEarlyReturn models the incremental window fold's per-slab
// recompute: a texture is acquired for each slab of the window, but the
// fold's error path returns before that slab's release — under a canceled
// slide every recomputed slab leaks.
func leakSlabFoldEarlyReturn(ctx context.Context, d *Device, slabs []int) error {
	for range slabs {
		tex := d.AcquireTexture(64, 64) // want "texture acquired here is not released on every path"
		if err := doWork(ctx); err != nil {
			return err // leak: this slab's texture is still live
		}
		d.ReleaseTexture(tex)
	}
	return nil
}

// leakPatchAbortPath models the pyramid-patch sweep holding one scratch
// texture across the whole appended tail and forgetting the release on the
// stride-amortized ctx-abort path.
func leakPatchAbortPath(ctx context.Context, d *Device, n int) error {
	tex := d.AcquireTexture(32, 32) // want "texture acquired here is not released on every path"
	for i := 0; i < n; i++ {
		if i%512 == 0 {
			if err := ctx.Err(); err != nil {
				return err // leak: abort skips the scratch release
			}
		}
	}
	d.ReleaseTexture(tex)
	return nil
}

func (d *Device) AcquireTextureFilled(w, h int, v float64) *Texture { return &Texture{} }
func (d *Device) ReleaseTextureFilled(t *Texture, v float64)        {}

// leakFilledOnAbort marks its texture clean on the happy path and forgets
// the texture on the abort path: the filled entry points pair like the
// plain ones.
func leakFilledOnAbort(ctx context.Context, d *Device) error {
	tex := d.AcquireTextureFilled(8, 8, 1) // want "texture acquired here is not released on every path"
	if err := doWork(ctx); err != nil {
		return err // leak: tex still live here
	}
	d.ReleaseTextureFilled(tex, 1)
	return nil
}
