package cube

import (
	"context"
	"testing"

	"repro/internal/core"
)

func BenchmarkCubeBuild(b *testing.B) {
	ps, rs := cubeScene(100_000, 1)
	cfg := Config{Regions: rs, TimeBin: 3600, Attrs: []string{"v"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ps, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubeJoin(b *testing.B) {
	ps, rs := cubeScene(100_000, 2)
	c, err := Build(ps, Config{Regions: rs, TimeBin: 3600, Attrs: []string{"v"}})
	if err != nil {
		b.Fatal(err)
	}
	req := core.Request{Points: ps, Regions: rs, Agg: core.Avg, Attr: "v",
		Time: &core.TimeFilter{Start: c.BinStart(1), End: c.BinStart(6)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.JoinContext(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
