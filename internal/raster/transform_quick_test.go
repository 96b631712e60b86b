package raster

import (
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// Property: for any grid and any in-window point, the pixel returned by
// ToPixel contains the point (PixelBox inversion).
func TestToPixelBoxInversionProperty(t *testing.T) {
	f := func(w8, h8 uint8, fx, fy uint16) bool {
		w := int(w8%64) + 1
		h := int(h8%64) + 1
		tr := NewTransform(geom.BBox{MinX: -3, MinY: 2, MaxX: 13, MaxY: 11}, w, h)
		p := geom.Point{
			X: tr.World.MinX + float64(fx)/65535*tr.World.Width(),
			Y: tr.World.MinY + float64(fy)/65535*tr.World.Height(),
		}
		px, py, ok := tr.ToPixel(p)
		if !ok {
			return false
		}
		// The max edge maps into the last pixel; expand the box by a hair
		// to absorb the closed-edge convention.
		return tr.PixelBox(px, py).Expand(1e-9).Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: every pixel's center maps back to that pixel.
func TestPixelCenterRoundTripProperty(t *testing.T) {
	f := func(w8, h8, xs, ys uint8) bool {
		w := int(w8%96) + 1
		h := int(h8%96) + 1
		tr := NewTransform(geom.BBox{MinX: 0, MinY: 0, MaxX: 7, MaxY: 5}, w, h)
		px := int(xs) % w
		py := int(ys) % h
		gx, gy, ok := tr.ToPixel(tr.PixelCenter(px, py))
		return ok && gx == px && gy == py
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Sub tiles partition the full grid — each full pixel belongs to
// exactly one tile, with matching world geometry.
func TestSubPartitionProperty(t *testing.T) {
	f := func(w8, h8, step8 uint8) bool {
		w := int(w8%50) + 1
		h := int(h8%50) + 1
		step := int(step8%13) + 1
		tr := NewTransform(geom.BBox{MinX: -1, MinY: -1, MaxX: 4, MaxY: 3}, w, h)
		covered := 0
		for y0 := 0; y0 < h; y0 += step {
			for x0 := 0; x0 < w; x0 += step {
				sub := tr.Sub(x0, y0, step, step)
				covered += sub.W * sub.H
				// The sub's first pixel center matches the parent's.
				if !sub.PixelCenter(0, 0).NearEq(tr.PixelCenter(x0, y0), 1e-9) {
					return false
				}
			}
		}
		return covered == w*h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Bitmap Set/Get/Unset/NextSet behave like a reference map,
// across the words of a row.
func TestBitmapAgainstMapProperty(t *testing.T) {
	const w = 100 // two words per row
	f := func(ops []uint16) bool {
		bm := NewBitmap(w, 29)
		ref := map[int]bool{}
		for _, op := range ops {
			x := int(op) % w
			y := (int(op) / w) % 29
			switch op % 3 {
			case 0:
				bm.Set(x, y)
				ref[y*w+x] = true
			case 1:
				bm.Unset(x, y)
				delete(ref, y*w+x)
			case 2:
				if bm.Get(x, y) != ref[y*w+x] {
					return false
				}
			}
		}
		count := 0
		for range ref {
			count++
		}
		// NextSet agrees with a linear scan of the reference row.
		for y := 0; y < 29; y++ {
			for x := 0; x <= w; x += 3 {
				for _, end := range []int{x, x + 1, x + 20, w} {
					end = min(end, w)
					want := end
					for j := x; j < end; j++ {
						if ref[y*w+j] {
							want = j
							break
						}
					}
					if bm.NextSet(y, x, end) != want {
						return false
					}
				}
			}
		}
		return bm.Count() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
