package geoblocks_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geoblocks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestGeoBlocksDeclinesByCost pins the engine's cost rule on the NYC scene:
// whole-layer requests over neighborhoods, tracts and grid64 go to the
// raster join, the E19 shapes stay on the hybrid. The decision is the same
// cold (empty store and memo), warm, after an append patch, and on a
// rebuild over the patched points; a declined result deep-equals the raster
// join's own.
func TestGeoBlocksDeclinesByCost(t *testing.T) {
	sc := workload.NYC(20_000, 2009)
	raster := core.NewRasterJoin(core.WithMode(core.Accurate), core.WithResolution(256))
	ctx := context.Background()
	targets := sceneTargets(sc)

	// run answers every target on eng over ps and checks each decision.
	run := func(label string, eng *geoblocks.Engine, ps *data.PointSet) {
		t.Helper()
		for _, tg := range targets {
			req := core.Request{Points: ps, Regions: tg.rs, Agg: core.Sum, Attr: "fare"}
			tr := trace.New("decline")
			got, err := eng.JoinContext(trace.NewContext(ctx, tr), req)
			if err != nil {
				t.Fatalf("%s %s: %v", label, tg.name, err)
			}
			declined := tr.Counters()["geoblocks.declined"] == 1
			hybrid := strings.HasPrefix(got.Algorithm, "geoblocks-hybrid")
			if declined != tg.decline || hybrid == tg.decline {
				t.Errorf("%s %s: algorithm %q, declined=%v; want declined=%v",
					label, tg.name, got.Algorithm, declined, tg.decline)
				continue
			}
			if !tg.decline {
				continue
			}
			want, err := raster.JoinContext(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: declined result differs from the raster join's", label, tg.name)
			}
		}
	}

	declines := uint64(0)
	for _, tg := range targets {
		if tg.decline {
			declines++
		}
	}
	eng := geoblocks.NewEngine(raster, 0)
	run("cold", eng, sc.Taxi)
	run("warm", eng, sc.Taxi)
	if st := eng.Stats(); st.Declined != 2*declines || st.Misses != 1 {
		t.Fatalf("after cold+warm: declined=%d builds=%d, want %d and 1", st.Declined, st.Misses, 2*declines)
	}

	grown, err := sc.Taxi.AppendCOW(deepSlice(sc.Taxi, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Store().Patch(ctx, sc.Taxi, grown) {
		t.Fatal("patch refused")
	}
	run("patched", eng, grown)
	if st := eng.Stats(); st.Misses != 1 || st.Patches != 1 {
		t.Fatalf("after patch: builds=%d patches=%d, want 1 and 1", st.Misses, st.Patches)
	}
	run("rebuilt", geoblocks.NewEngine(raster, 0), deepSlice(grown, 0, grown.Len()))
}
