package geoblocks_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geoblocks"
	"repro/internal/geom"
)

// TestConcurrentBuildWhileQuery runs query goroutines against an engine
// that another goroutine keeps replacing with a fresh one (an empty
// store), forcing builds to race live queries. Run under -race this proves
// the index is immutable after publication and concurrent first queries
// share a build safely; the brute-force check proves every answer —
// whichever build served it — is exact. Half the battery are two-region
// sets shared by every worker, so the cost rule's memo is read and filled
// concurrently too.
func TestConcurrentBuildWhileQuery(t *testing.T) {
	ps := buildScene(t, 8000, 71)
	raster := core.NewRasterJoin(core.WithMode(core.Accurate))
	var eng atomic.Pointer[geoblocks.Engine]
	eng.Store(geoblocks.NewEngine(raster, 6))

	// Fixed polygon battery with precomputed exact counts/sums.
	rng := rand.New(rand.NewSource(72))
	type qcase struct {
		pg    geom.Polygon
		rs    *data.RegionSet
		count int64
		sum   float64
	}
	col := ps.Attr("v")
	var battery []qcase
	for i := 0; i < 12; i++ {
		pg := randomPolygon(rng)
		var qc qcase
		qc.pg = pg
		qc.rs = regions(pg)
		if i%2 == 1 {
			qc.rs = regions(pg, battery[i-1].pg)
		}
		for j := 0; j < ps.Len(); j++ {
			if pg.Contains(geom.Point{X: ps.X[j], Y: ps.Y[j]}) {
				qc.count++
				qc.sum += col[j]
			}
		}
		battery = append(battery, qc)
	}

	const workers = 8
	const iters = 60
	var churn atomic.Bool
	churn.Store(true)

	// Engine churner: swaps in an empty store continuously, so queries
	// constantly alternate between warm hits and cold builds.
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for churn.Load() {
			eng.Store(geoblocks.NewEngine(raster, 6))
			runtime.Gosched()
		}
	}()

	errs := make(chan string, workers*iters)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				qc := battery[(w+i)%len(battery)]
				res, err := eng.Load().JoinContext(ctx, core.Request{
					Points: ps, Regions: qc.rs, Agg: core.Sum, Attr: "v"})
				if err != nil {
					errs <- err.Error()
					return
				}
				st := res.Stats[0]
				if st.Count != qc.count {
					errs <- "count mismatch under churn"
					return
				}
				if d := st.Sum - qc.sum; d > sumTol(qc.count, 200) || d < -sumTol(qc.count, 200) {
					errs <- "sum out of tolerance under churn"
					return
				}
			}
		}(w)
	}

	wg.Wait()
	churn.Store(false)
	churnWG.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
