package fsum

import (
	"math"
	"math/rand"
	"testing"
)

// kahan sums xs through one Kahan accumulator.
func kahan(xs []float64) float64 {
	var k Kahan
	for _, v := range xs {
		k.Add(v)
	}
	return k.Sum()
}

// The classic Kahan stress case: a huge term followed by many small ones.
// Naive summation loses every small term; compensated summation keeps them.
func TestKahanIllConditioned(t *testing.T) {
	xs := make([]float64, 1+1000)
	xs[0] = 1e16
	for i := 1; i < len(xs); i++ {
		xs[i] = 1.0
	}
	want := 1e16 + 1000

	naive := 0.0
	for _, v := range xs {
		naive += v
	}
	if naive == want {
		t.Fatalf("test is not ill-conditioned: naive sum is already exact")
	}
	if got := kahan(xs); got != want {
		t.Errorf("Kahan.Sum = %v, want %v", got, want)
	}
}

// Neumaier's improvement over classic Kahan: the big term arrives after
// the sum, so |v| > |sum| at the critical add.
func TestNeumaierBigTermLate(t *testing.T) {
	xs := []float64{1, 1e100, 1, -1e100}
	if got := kahan(xs); got != 2 {
		t.Errorf("Kahan.Sum = %v, want 2", got)
	}
}

func TestPairwiseMatchesKahan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 31, 32, 33, 1000, 4096} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)))
		}
		exact := kahan(xs)
		got := Pairwise(xs)
		if math.Abs(got-exact) > 1e-9*math.Max(1, math.Abs(exact)) {
			t.Errorf("n=%d: Pairwise = %v, Kahan = %v", n, got, exact)
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if kahan(nil) != 0 || Pairwise(nil) != 0 {
		t.Error("empty sum should be 0")
	}
	if kahan([]float64{3.5}) != 3.5 || Pairwise([]float64{3.5}) != 3.5 {
		t.Error("single-element sum should be identity")
	}
}

func BenchmarkSum(b *testing.B) {
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = float64(i) * 0.1
	}
	b.Run("kahan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kahan(xs)
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Pairwise(xs)
		}
	})
}
