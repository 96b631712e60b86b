// Clean fixture for poolleak: every acquisition is released on all paths,
// escapes into an owning struct, or is provably nil on the unreleased path.
package a

import "context"

// cleanDeferred releases through a defer registered immediately, covering
// the later early return.
func cleanDeferred(ctx context.Context, d *Device) error {
	tex := d.AcquireTexture(64, 64)
	defer d.ReleaseTexture(tex)
	if err := doWork(ctx); err != nil {
		return err
	}
	return nil
}

// cleanErrPathGuard is the idiomatic two-result acquire: on the err != nil
// edge the canvas was never created, so the early return is clean.
func cleanErrPathGuard(d *Device) error {
	c, err := d.NewCanvas(32, 32)
	if err != nil {
		return err
	}
	defer c.Release()
	c.DrawPoints(10)
	return nil
}

// cleanBothBranches releases explicitly on every branch.
func cleanBothBranches(ctx context.Context, d *Device) error {
	tex := d.AcquireTexture(8, 8)
	if ctx.Err() != nil {
		d.ReleaseTexture(tex)
		return ctx.Err()
	}
	d.ReleaseTexture(tex)
	return nil
}

// cleanDeferredClosure releases inside a deferred closure, the shape the
// multi-spec joiner uses for its per-spec texture arrays.
func cleanDeferredClosure(ctx context.Context, d *Device) error {
	tex := d.AcquireTexture(16, 16)
	defer func() {
		d.ReleaseTexture(tex)
	}()
	return doWork(ctx)
}

// cleanEscapeToOwner parks the canvas in a struct whose own lifecycle
// releases it — ownership transfers, the function is no longer on the hook.
type stream struct {
	c   *Canvas
	tex *Texture
}

func (s *stream) close(d *Device) {
	s.c.Release()
	d.ReleaseTexture(s.tex)
}

func cleanEscapeToOwner(d *Device) (*stream, error) {
	c, err := d.NewCanvas(16, 16)
	if err != nil {
		return nil, err
	}
	s := &stream{c: c, tex: d.AcquireTexture(16, 16)}
	return s, nil
}

// cleanNilGuard releases only when non-nil — the nil edge has nothing to
// release.
func cleanNilGuard(d *Device, want bool) {
	var tex *Texture
	if want {
		tex = d.AcquireTexture(4, 4)
	}
	if tex != nil {
		d.ReleaseTexture(tex)
	}
}

// cleanReturned hands the live resource to the caller: ownership transfers
// with it.
func cleanReturned(d *Device) *Texture {
	return returnHelper(d)
}

func returnHelper(d *Device) *Texture {
	tex := d.AcquireTexture(2, 2)
	return tex
}

// cleanRefinementDefer is the corrected refinement loop: the defer
// registered right after acquisition covers the stride-amortized abort
// path inside the loop.
func cleanRefinementDefer(ctx context.Context, d *Device, fringe []int) error {
	c, err := d.NewCanvas(64, 64)
	if err != nil {
		return err
	}
	defer c.Release()
	for i, cell := range fringe {
		if i%64 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		c.DrawPoints(cell)
	}
	return nil
}

// cleanSlabFoldBothPaths is the corrected per-slab recompute: the slab's
// texture is released on the fold's error path and on the happy path, so
// a canceled slide unwinds with nothing live.
func cleanSlabFoldBothPaths(ctx context.Context, d *Device, slabs []int) error {
	for range slabs {
		tex := d.AcquireTexture(64, 64)
		if err := doWork(ctx); err != nil {
			d.ReleaseTexture(tex)
			return err
		}
		d.ReleaseTexture(tex)
	}
	return nil
}

// cleanPatchDefer is the corrected pyramid-patch sweep: the scratch
// texture's deferred release covers the stride-amortized abort path.
func cleanPatchDefer(ctx context.Context, d *Device, n int) error {
	tex := d.AcquireTexture(32, 32)
	defer d.ReleaseTexture(tex)
	for i := 0; i < n; i++ {
		if i%512 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// cleanFilledBothPaths releases a filled texture marked on success and
// unmarked on the abort path.
func cleanFilledBothPaths(ctx context.Context, d *Device) error {
	tex := d.AcquireTextureFilled(8, 8, 1)
	if err := doWork(ctx); err != nil {
		d.ReleaseTexture(tex)
		return err
	}
	d.ReleaseTextureFilled(tex, 1)
	return nil
}
