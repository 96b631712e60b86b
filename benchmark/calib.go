package main

import (
	"sort"
	"sync"
	"time"
)

// The hosts this runs on are a few vCPUs of a shared machine whose memory
// system slows by 10-40 % for minutes at a time as the neighbours come and go
// (the same seed of the same binary: ingest_slide's p50 31 ms in one half
// hour, 42-50 ms in the next; an arithmetic loop takes 3.75 ms in both). No
// amount of medians or longer runs removes a slowdown that outlasts the run:
// three ten-seed batches in one afternoon had a timing spread over the 25 %
// bound each (25.6 %, 25.4 %, 30 %). So every run measures the host alongside
// the server and reports its times at a reference host speed.
//
// The yardstick is a fixed kernel in two parts: calibFlops dependent
// multiply-adds, which no neighbour disturbs (3.7 ms), then a scatter-add of
// calibN points from two coordinate columns into an 8 MiB canvas, which is
// all cache misses (3.3 ms in a quiet phase, 5 in a loud one). The server's
// work is a mix of the two kinds; the parts are sized so that the kernel
// slows about as much as the server's requests do. Fitted on ten seeds of
// each workload in a loud hour: with the memory part alone the kernel
// over-corrects the workloads that are half as sensitive as it is (the
// cold_adhoc pair), with the arithmetic alone it corrects nothing, and
// between 1.5 and 2 parts arithmetic to 1 part scatter the worst spread (IQR ÷
// median) of p50, p95 and throughput over the five workloads fell from 30 %
// as measured to 12 % as reported.
//
// A client runs the kernel between requests, when the closed loop leaves the
// server idle on that client's behalf, once every calibEvery requests, so it
// always finds the caches as the server left them (run back to back it would
// keep its working set resident). The run's host factor is calibRefMs ÷
// (lower quartile of the kernel times): the lower quartile follows a
// sustained slowdown and ignores the odd pre-empted sample. Every reported
// time — the boots' too, which end seconds before the window — is the
// measured time × that factor. A change to the server moves a reported time
// exactly as it moves the measured one. host.calib_ms (traced runs) and the
// "host factor" line of the report give what it takes to undo the scaling.
const (
	// calibRefMs is the kernel's lower-quartile time on this class of host
	// in a quiet phase, so reported and measured times agree there.
	calibRefMs = 7.0
	calibEvery = 4
	calibFlops = 1_500_000
	calibN     = 1 << 18 // points per scatter pass
	calibSide  = 1 << 10 // the canvas is calibSide x calibSide
)

var (
	calibOnce      sync.Once
	calibX, calibY []float64
)

// calibrator owns one canvas, so concurrent clients do not share writes; the
// coordinate columns are read-only and shared.
type calibrator struct {
	canvas []float64
	ms     []float64     // one entry per kernel run
	spent  time.Duration // total time in the kernel
}

func newCalibrator() *calibrator {
	calibOnce.Do(func() {
		calibX, calibY = make([]float64, calibN), make([]float64, calibN)
		s := uint64(88172645463325252) // xorshift64: fixed inputs, every run
		next := func() float64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return float64(s>>11) / (1 << 53)
		}
		for i := range calibX {
			calibX[i], calibY[i] = next(), next()
		}
	})
	return &calibrator{canvas: make([]float64, calibSide*calibSide)}
}

// sample runs the kernel once.
func (c *calibrator) sample() {
	t := time.Now()
	a, b := 1.0000001, 0.0
	for i := 0; i < calibFlops; i++ {
		b = b*a + 0.5
		a = a*0.9999999 + 1e-9
	}
	c.canvas[0] += a + b // keeps the loop alive
	for i, x := range calibX {
		px := int(x*calibSide) & (calibSide - 1)
		py := int(calibY[i]*calibSide) & (calibSide - 1)
		c.canvas[py*calibSide+px] += x
	}
	d := time.Since(t)
	c.ms = append(c.ms, float64(d)/float64(time.Millisecond))
	c.spent += d
}

// calibMs is the lower quartile of the kernel times (0 with no samples).
func calibMs(ms []float64) float64 {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return percentile(s, 0.25)
}

// hostFactor turns a measured time into a reported one.
func hostFactor(ms []float64) float64 {
	if q := calibMs(ms); q > 0 {
		return calibRefMs / q
	}
	return 1
}
