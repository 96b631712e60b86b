package tcache_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/tcache"
)

// TestConcurrentFoldsAcrossAppends: folds over the current snapshot and the
// one before it race four appends, each published the way Framework.Append
// does, by swapping in the grown set and touching no cache. Whatever the
// interleaving — a fold over an old snapshot putting partials after a newer
// one was published, a sealed partial of one snapshot read by a fold over
// the next — every fold equals a cold fold of the snapshot it was asked
// about, and so does a fold over the final snapshot once the appends are
// done. The cache stays inside its budget.
func TestConcurrentFoldsAcrossAppends(t *testing.T) {
	ps := buildTemporalScene(t, 2000, 67)
	rs := queryRegions(rand.New(rand.NewSource(71)))
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))
	const gran = 3600
	_, last, _ := ps.TimeRange()

	snaps := []*data.PointSet{ps}
	for i := 1; i <= 4; i++ {
		x := float64(100 * i)
		tail := &data.PointSet{Name: ps.Name, X: []float64{x, x + 5}, Y: []float64{x, 1000 - x},
			T:     []int64{last, last},
			Attrs: []data.Column{{Name: "v", Values: []float64{x, -x}}, {Name: "w", Values: []float64{1, 2}}}}
		grown, err := snaps[i-1].AppendCOW(tail)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, grown)
	}
	// Windows wholly sealed, ending in the open slab that holds every
	// appended timestamp, and spanning both.
	windows := [][2]int64{{32, 40}, {40, 48}, {24, 48}}
	req := func(s, w int) core.Request {
		return core.Request{Points: snaps[s], Regions: rs, Agg: core.Sum, Attr: "w",
			Time: &core.TimeFilter{Start: windows[w][0] * gran, End: windows[w][1] * gran}}
	}
	ctx := context.Background()
	cold := make([][]*core.Result, len(snaps))
	for s := range snaps {
		for w := range windows {
			res, err := tcache.New(raster, gran, 0, 0).JoinContext(ctx, req(s, w))
			if err != nil {
				t.Fatal(err)
			}
			cold[s] = append(cold[s], res)
		}
	}

	type fold struct {
		s, w int
		res  *core.Result
		err  error
	}
	j := tcache.New(raster, gran, 0, 0)
	for w := range windows { // warm: every slab of the first snapshot cached
		if _, err := j.JoinContext(ctx, req(0, w)); err != nil {
			t.Fatal(err)
		}
	}
	var cur, done atomic.Int32
	var wg sync.WaitGroup
	folds := make([][]fold, 4)
	for g := range folds {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 12; i++ {
				s := int(cur.Load())
				if s > 0 && rng.Intn(3) == 0 {
					s-- // a request that took its snapshot before the append
				}
				w := rng.Intn(len(windows))
				res, err := j.JoinContext(ctx, req(s, w))
				folds[g] = append(folds[g], fold{s, w, res, err})
				done.Add(1)
			}
		}(g)
	}
	// Spread the appends over the run: the i-th lands after 8·i folds.
	for i := 1; i < len(snaps); i++ {
		for done.Load() < int32(8*i) {
			runtime.Gosched()
		}
		cur.Store(int32(i))
	}
	wg.Wait()
	final := len(snaps) - 1
	for w := range windows {
		res, err := j.JoinContext(ctx, req(final, w))
		folds[0] = append(folds[0], fold{final, w, res, err})
	}

	for g, fs := range folds {
		for i, f := range fs {
			if f.err != nil {
				t.Fatalf("worker %d fold %d: %v", g, i, f.err)
			}
			requireSame(t, "concurrent fold", f.res, cold[f.s][f.w])
		}
	}
	if st := j.CacheStats(); st.Bytes > st.Capacity {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, st.Capacity)
	}
}
