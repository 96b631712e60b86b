// Package fsum provides compensated floating-point summation for the
// aggregation kernels. Naive `sum += v` over millions of points loses up
// to O(n·eps) relative accuracy; the helpers here bound the error at
// O(eps) (Neumaier/Kahan) or O(eps·log n) (pairwise) for a few extra flops
// per element.
//
// It is a leaf package so that geometry code can use it without importing
// the kernel layer.
package fsum

// Kahan is a running compensated accumulator (Neumaier's variant, which
// unlike classic Kahan stays accurate when a term exceeds the running sum).
// The zero value is an empty sum.
type Kahan struct {
	sum, c float64
}

// Add folds v into the accumulator.
func (k *Kahan) Add(v float64) {
	t := k.sum + v
	if abs(k.sum) >= abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *Kahan) Sum() float64 { return k.sum + k.c }

// Pairwise returns the pairwise (cascade) sum of xs: error O(eps·log n)
// with plain adds, and it vectorizes better than Kahan on long slices.
func Pairwise(xs []float64) float64 {
	const base = 32
	if len(xs) <= base {
		s := 0.0
		for _, v := range xs {
			//lint:ignore floataccum pairwise base case: block is <= 32 terms, error bounded
			s += v
		}
		return s
	}
	half := len(xs) / 2
	return Pairwise(xs[:half]) + Pairwise(xs[half:])
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
