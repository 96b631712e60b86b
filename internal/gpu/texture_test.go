package gpu

import "repro/internal/fsum"

// Set stores v at pixel (x,y).
func (t *Texture) Set(x, y int, v float64) { t.Data[y*t.W+x] = v }

// Sum returns the total of all pixels (a conservation check), pairwise-summed
// so the readback of a multi-megapixel target does not drift.
func (t *Texture) Sum() float64 { return fsum.Pairwise(t.Data) }
