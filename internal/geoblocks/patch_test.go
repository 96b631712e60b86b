package geoblocks_test

// Patch-on-append metamorphic suite: an index patched with appended tails
// must be indistinguishable from an index rebuilt from scratch over the
// same points — counts and min/max bit-identical (integer adds and
// monotone updates), sums within the package's ε contract (the patch
// merges two compensated partials per cell) — and the patched hybrid must
// still satisfy the original equivalence contract against the full
// accurate raster join.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geoblocks"
	"repro/internal/geom"
)

// buildPatchScene mirrors buildScene but clamps every coordinate into
// [0,1000]² and pins the corners up front, so any prefix of the points
// spans the full grid bounds and any suffix appends in-bounds — patches
// never hit the out-of-bounds refusal.
func buildPatchScene(t testing.TB, n int, seed int64) *data.PointSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ps := &data.PointSet{Name: "patch-scene"}
	v := make([]float64, 0, n)
	w := make([]float64, 0, n)
	clamp := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1000 {
			return 1000
		}
		return x
	}
	add := func(x, y float64) {
		ps.X = append(ps.X, clamp(x))
		ps.Y = append(ps.Y, clamp(y))
		v = append(v, (rng.Float64()-0.5)*200)
		w = append(w, rng.Float64()*60)
	}
	add(0, 0)
	add(1000, 1000)
	for i := 0; i < 6; i++ {
		add(333.125, 666.875)
	}
	for len(ps.X) < n {
		switch rng.Intn(3) {
		case 0:
			add(rng.Float64()*1000, rng.Float64()*1000)
		case 1:
			add(280+rng.NormFloat64()*60, 640+rng.NormFloat64()*60)
		default:
			add(760+rng.NormFloat64()*30, 220+rng.NormFloat64()*30)
		}
	}
	ps.Attrs = []data.Column{{Name: "v", Values: v}, {Name: "w", Values: w}}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	return ps
}

// deepSlice copies points [lo, hi) into an independent PointSet, so the
// copy-on-write appends in the tests can never alias each other's arrays.
func deepSlice(ps *data.PointSet, lo, hi int) *data.PointSet {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return ps.Select(idx)
}

// TestPatchAppendEquivalence re-runs the 216-case metamorphic suite
// against appended states: the hierarchy is built over a 4500-point base,
// patched through two successive appends to 6000 points, and then — at
// three pyramid depths × 72 randomized (polygon, aggregate) cases — must
// match both the full accurate raster join over the appended state and a
// from-scratch rebuild over the identical points.
func TestPatchAppendEquivalence(t *testing.T) {
	full := buildPatchScene(t, 6000, 17)
	const m, mid = 4500, 5250
	ctx := context.Background()
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(96))
	rng := rand.New(rand.NewSource(7))

	cases := 0
	for _, lvl := range []int{3, 5, 8} {
		basePS := deepSlice(full, 0, m)
		tail1 := deepSlice(full, m, mid)
		tail2 := deepSlice(full, mid, 6000)
		rebuiltPS := deepSlice(full, 0, 6000)

		eng := geoblocks.PinHybrid(geoblocks.NewEngine(raster, lvl))
		engRebuild := geoblocks.PinHybrid(geoblocks.NewEngine(raster, lvl))

		// Build the base hierarchy, then move it through two patches —
		// the second exercises patch-on-patch (tail CSR spanning both
		// appends, delta pyramid over only the second).
		if _, err := eng.JoinContext(ctx, core.Request{
			Points: basePS, Regions: regions(randomPolygon(rng)), Agg: core.Count}); err != nil {
			t.Fatalf("level %d: base build: %v", lvl, err)
		}
		grown1, err := basePS.AppendCOW(tail1)
		if err != nil {
			t.Fatal(err)
		}
		if !eng.Store().Patch(ctx, basePS, grown1) {
			t.Fatalf("level %d: first patch refused", lvl)
		}
		grown2, err := grown1.AppendCOW(tail2)
		if err != nil {
			t.Fatal(err)
		}
		if !eng.Store().Patch(ctx, grown1, grown2) {
			t.Fatalf("level %d: second patch refused", lvl)
		}
		if st := eng.Store().Stats(); st.Patches != 2 || st.PatchFallbacks != 0 {
			t.Fatalf("level %d: patches=%d fallbacks=%d, want 2/0", lvl, st.Patches, st.PatchFallbacks)
		}
		missesAfterPatch := eng.Store().Stats().Misses

		for i := 0; i < 72; i++ {
			polys := []geom.Polygon{randomPolygon(rng)}
			if i%4 == 0 {
				polys = append(polys, randomPolygon(rng))
			}
			ac := aggCases[i%len(aggCases)]
			req := core.Request{Points: grown2, Regions: regions(polys...), Agg: ac.agg, Attr: ac.attr}

			got, err := eng.JoinContext(ctx, req)
			if err != nil {
				t.Fatalf("level %d case %d: patched hybrid: %v", lvl, i, err)
			}
			want, err := raster.JoinContext(ctx, req)
			if err != nil {
				t.Fatalf("level %d case %d: baseline: %v", lvl, i, err)
			}
			compareResults(t, "patched-vs-raster", got, want, ac.agg, 200)

			rreq := req
			rreq.Points = rebuiltPS
			rb, err := engRebuild.JoinContext(ctx, rreq)
			if err != nil {
				t.Fatalf("level %d case %d: rebuilt hybrid: %v", lvl, i, err)
			}
			compareResults(t, "patched-vs-rebuilt", got, rb, ac.agg, 200)
			cases++
		}
		// Every query after the patches must have been served by the
		// patched index, never a silent rebuild.
		if st := eng.Store().Stats(); st.Misses != missesAfterPatch {
			t.Fatalf("level %d: store rebuilt behind the patch: misses %d -> %d",
				lvl, missesAfterPatch, st.Misses)
		}
	}
	if cases < 216 {
		t.Fatalf("only %d randomized cases ran; the suite promises >= 216", cases)
	}
}

// TestPatchRefusals: the situations where patching would be unsound fall
// back (Patch returns false, the old snapshot's entry stays, the next query
// for the grown set lazily rebuilds a correct index).
func TestPatchRefusals(t *testing.T) {
	ctx := context.Background()
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(64))
	rng := rand.New(rand.NewSource(3))

	t.Run("out_of_bounds_append", func(t *testing.T) {
		base := buildPatchScene(t, 500, 5)
		eng := geoblocks.NewEngine(raster, 5)
		req := core.Request{Points: base, Regions: regions(randomPolygon(rng)), Agg: core.Count}
		if _, err := eng.JoinContext(ctx, req); err != nil {
			t.Fatal(err)
		}
		tail := deepSlice(base, 0, 1)
		tail.X[0], tail.Y[0] = 5000, 5000 // outside the [0,1000]² grid
		grown, err := base.AppendCOW(tail)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Store().Patch(ctx, base, grown) {
			t.Fatal("out-of-bounds append was patched; clamping corrupts interior folds")
		}
		if st := eng.Store().Stats(); st.PatchFallbacks != 1 {
			t.Fatalf("patchFallbacks = %d, want 1", st.PatchFallbacks)
		}
		// The fallback path still answers correctly via a lazy rebuild.
		req.Points = grown
		got, err := eng.JoinContext(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := raster.JoinContext(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "post-fallback", got, want, core.Count, 200)
	})

	t.Run("empty_base", func(t *testing.T) {
		empty := &data.PointSet{Name: "empty"}
		ix, err := geoblocks.BuildContext(ctx, empty, 5)
		if err != nil {
			t.Fatal(err)
		}
		tail := buildPatchScene(t, 10, 9)
		if _, err := ix.PatchAppend(ctx, tail); err == nil {
			t.Fatal("patching an empty base must refuse (bounds would change)")
		}
	})

	t.Run("outgrown_tail", func(t *testing.T) {
		full := buildPatchScene(t, 900, 13)
		base := deepSlice(full, 0, 300)
		ix, err := geoblocks.BuildContext(ctx, base, 5)
		if err != nil {
			t.Fatal(err)
		}
		grown, err := base.AppendCOW(deepSlice(full, 300, 900))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.PatchAppend(ctx, grown); err == nil {
			t.Fatal("tail larger than base must refuse so a rebuild re-balances the CSR")
		}
	})
}

// TestPatchRetiredSnapshotNotCached: a query that took the old snapshot
// before an append and reaches the store after Patch retired it still gets
// a correct hierarchy for its snapshot, but the store keeps only the
// patched one — nobody will ask for the retired stamp again, so caching it
// would pin a full pyramid forever.
func TestPatchRetiredSnapshotNotCached(t *testing.T) {
	ctx := context.Background()
	full := buildPatchScene(t, 600, 21)
	base := deepSlice(full, 0, 500)
	s := geoblocks.NewStore(5)
	if _, err := s.Get(ctx, base); err != nil {
		t.Fatal(err)
	}
	grown, err := base.AppendCOW(deepSlice(full, 500, 600))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Patch(ctx, base, grown) {
		t.Fatal("in-bounds append was not patched")
	}
	late, err := s.Get(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if late.Len() != base.Len() {
		t.Fatalf("late Get(old) returned an index over %d points, want %d", late.Len(), base.Len())
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("store holds %d hierarchies after Get(old) raced Patch(old→new), want 1", st.Entries)
	}
	if st := s.Stats(); st.Patches != 1 {
		t.Fatalf("patches = %d, want 1", st.Patches)
	}
}

// TestPatchFallbackKeepsOneEntry: the store holds one hierarchy per data
// set name. A refused patch leaves the old snapshot's entry in place, a late
// Get for the old snapshot is served from it, and the first Get for the
// grown snapshot replaces it — one entry after every step, each index over
// the snapshot its caller asked for.
func TestPatchFallbackKeepsOneEntry(t *testing.T) {
	ctx := context.Background()
	base := buildPatchScene(t, 500, 25)
	s := geoblocks.NewStore(5)
	step := func(name string, got *geoblocks.Index, err error, want int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != nil && got.Len() != want {
			t.Fatalf("%s: index over %d points, want %d", name, got.Len(), want)
		}
		if st := s.Stats(); st.Entries != 1 {
			t.Fatalf("%s: store holds %d hierarchies, want 1", name, st.Entries)
		}
	}
	idx, err := s.Get(ctx, base)
	step("Get(old)", idx, err, base.Len())

	tail := deepSlice(base, 0, 1)
	tail.X[0], tail.Y[0] = 5000, 5000 // outside the [0,1000]² grid
	grown, err := base.AppendCOW(tail)
	if err != nil {
		t.Fatal(err)
	}
	if s.Patch(ctx, base, grown) {
		t.Fatal("out-of-bounds append was patched")
	}
	step("Patch(old→new) fallback", nil, nil, 0)

	idx, err = s.Get(ctx, base)
	step("late Get(old)", idx, err, base.Len())

	idx, err = s.Get(ctx, grown)
	step("Get(new)", idx, err, grown.Len())
	if st := s.Stats(); st.Hits != 1 || st.Misses != 2 || st.PatchFallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 hit (late Get(old)), 2 builds, 1 fallback", st)
	}
}
