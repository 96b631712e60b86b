package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/index"
)

// Streaming the points in batches must equal one monolithic join, per mode.
func TestStreamJoinMatchesMonolithic(t *testing.T) {
	ps, rs := scene(5000, 10, 601)
	for _, mode := range []core.Mode{core.Approximate, core.Accurate} {
		for _, agg := range []core.Agg{core.Count, core.Avg, core.Max} {
			rj := core.NewRasterJoin(core.WithResolution(256), core.WithMode(mode))
			want, err := rj.Join(core.Request{Points: ps, Regions: rs, Agg: agg, Attr: "v"})
			if err != nil {
				t.Fatal(err)
			}
			stream, err := rj.NewStream(rs, agg, "v", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Five uneven batches.
			for _, cut := range [][2]int{{0, 700}, {700, 1500}, {1500, 1501}, {1501, 4000}, {4000, 5000}} {
				if err := stream.AddContext(context.Background(), ps.Slice(cut[0], cut[1])); err != nil {
					t.Fatal(err)
				}
			}
			if stream.Batches() != 5 {
				t.Fatalf("batches = %d", stream.Batches())
			}
			got, err := stream.FinalizeContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			statsExactlyEqual(t, got, want, mode.String()+"/"+agg.String())
			// Min/Max fields too.
			if agg == core.Max {
				for k := range want.Stats {
					if got.Value(k, core.Max) != want.Value(k, core.Max) {
						t.Fatalf("region %d max %v vs %v",
							k, got.Value(k, core.Max), want.Value(k, core.Max))
					}
				}
			}
		}
	}
}

// Accurate streaming equals brute force over the concatenated batches.
func TestStreamJoinExact(t *testing.T) {
	ps, rs := scene(4000, 8, 603)
	req := core.Request{Points: ps, Regions: rs, Agg: core.Sum, Attr: "v",
		Filters: []core.Filter{{Attr: "v", Min: 2, Max: 9}}}
	want, err := (&index.BruteForce{}).Join(req)
	if err != nil {
		t.Fatal(err)
	}
	rj := core.NewRasterJoin(core.WithResolution(128), core.WithMode(core.Accurate))
	stream, err := rj.NewStream(rs, core.Sum, "v", req.Filters, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < ps.Len(); s += 1000 {
		e := s + 1000
		if e > ps.Len() {
			e = ps.Len()
		}
		if err := stream.AddContext(context.Background(), ps.Slice(s, e)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := stream.FinalizeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	statsExactlyEqual(t, got, want, "streamed accurate vs brute force")
}

func TestStreamJoinErrors(t *testing.T) {
	ps, rs := scene(100, 4, 605)
	rj := core.NewRasterJoin(core.WithResolution(64))
	if _, err := rj.NewStream(rs, core.Sum, "", nil, nil); err == nil {
		t.Error("SUM without attribute should fail")
	}
	if _, err := core.NewRasterJoin(core.WithEpsilon(5)).NewStream(rs, core.Count, "", nil, nil); err == nil {
		t.Error("epsilon mode should be refused")
	}
	big := core.NewRasterJoin(core.WithResolution(512),
		core.WithDevice(gpu.New(gpu.WithMaxTextureSize(64))))
	if _, err := big.NewStream(rs, core.Count, "", nil, nil); err == nil {
		t.Error("oversized canvas should be refused")
	}
	// Bad batch: missing attribute.
	stream, err := rj.NewStream(rs, core.Sum, "v", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := ps.Slice(0, 10)
	bad.Attrs = nil
	if err := stream.AddContext(context.Background(), bad); err == nil {
		t.Error("batch without the aggregate attribute should fail")
	}
	// Double finalize.
	if _, err := stream.FinalizeContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.FinalizeContext(context.Background()); err == nil {
		t.Error("double finalize should fail")
	}
	if err := stream.AddContext(context.Background(), ps); err == nil {
		t.Error("add after finalize should fail")
	}
}
