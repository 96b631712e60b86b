package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/geoblocks"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/tcache"
)

// TestJoinersHonorCanceledContext: every joiner satisfies core.Joiner,
// answers its request under a live context, and returns context.Canceled
// for one that is already canceled.
func TestJoinersHonorCanceledContext(t *testing.T) {
	ps, rs := scene(3000, 6, 77)
	c, err := cube.Build(ps, cube.Config{Regions: rs})
	if err != nil {
		t.Fatal(err)
	}
	plain := core.Request{Points: ps, Regions: rs, Agg: core.Count}
	windowed := plain
	windowed.Time = &core.TimeFilter{Start: 0, End: 2000}
	rj := core.NewRasterJoin(core.WithResolution(128))
	cases := []struct {
		j   core.Joiner
		req core.Request
	}{
		{rj, plain},
		{geoblocks.NewEngine(rj, 4), plain},
		{tcache.New(rj, 500, 0, 0), windowed},
		{shard.New(rj, 2), plain},
		{c, plain},
		{&index.BruteForce{}, plain},
		{&index.GridJoin{}, plain},
		{&index.RTreeJoin{}, plain},
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		if _, err := tc.j.JoinContext(context.Background(), tc.req); err != nil {
			t.Fatalf("%T: %v", tc.j, err)
		}
		if _, err := tc.j.JoinContext(canceled, tc.req); !errors.Is(err, context.Canceled) {
			t.Errorf("%T under a canceled context: err = %v, want context.Canceled", tc.j, err)
		}
	}
}
