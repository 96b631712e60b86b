package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/segment"
)

// piece is one call Scan.pieces made.
type piece struct {
	lo, hi   int
	needPred bool
}

// walk returns the pieces sc yields over [s, e).
func walk(t *testing.T, sc *Scan, s, e int) []piece {
	t.Helper()
	var out []piece
	err := sc.pieces(context.Background(), s, e, func(_ *data.Block, lo, hi int, needPred bool) error {
		out = append(out, piece{lo, hi, needPred})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScanPiecesSameOnEverySource: an in-RAM set and the same set written to
// a segment file at the same block size yield identical piece sequences
// under random time windows, filters, canvas windows and subranges — the
// in-RAM set takes the segment's block walk, one piece per surviving block.
func TestScanPiecesSameOnEverySource(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n = 5*data.DefaultBlockSize + 123
	for _, sorted := range []bool{true, false} {
		ps := &data.PointSet{Name: fmt.Sprintf("walk-%v", sorted),
			X: make([]float64, n), Y: make([]float64, n), T: make([]int64, n)}
		hot, v := make([]float64, n), make([]float64, n)
		for i := range n {
			// x and hot follow the index, so zones prune contiguous runs.
			ps.X[i] = float64(i)/n*1000 + rng.Float64()
			ps.Y[i] = rng.Float64() * 1000
			ps.T[i] = int64(i * 3)
			if !sorted {
				ps.T[i] = rng.Int63n(3 * n)
			}
			hot[i] = float64(i) + rng.Float64()
			v[i] = rng.Float64() * 10
		}
		ps.Attrs = []data.Column{{Name: "hot", Values: hot}, {Name: "v", Values: v}}

		path := filepath.Join(t.TempDir(), ps.Name+".useg")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := segment.Write(f, ps, segment.WithBlockSize(data.DefaultBlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := segment.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })

		rj := NewRasterJoin()
		for trial := range 200 {
			req := Request{Points: ps, Regions: testRegions(), Agg: Sum, Attr: "v"}
			if rng.Intn(2) == 0 {
				a, b := rng.Int63n(3*n), rng.Int63n(3*n)
				req.Time = &TimeFilter{Start: min(a, b), End: max(a, b)}
			}
			if rng.Intn(2) == 0 {
				a, b := rng.Float64()*n, rng.Float64()*n
				req.Filters = []Filter{{Attr: "hot", Min: min(a, b), Max: max(a, b)}}
			}
			if rng.Intn(3) == 0 {
				req.Filters = append(req.Filters, Filter{Attr: "v", Min: 0, Max: 5 + rng.Float64()*10})
			}
			ram, err := rj.newScan(req)
			if err != nil {
				t.Fatal(err)
			}
			req.Source = st
			seg, err := rj.newScan(req)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				w := geom.BBox{MinX: rng.Float64() * 500, MinY: 0, MaxX: 500 + rng.Float64()*500, MaxY: 1000}
				ram.setWorld(w)
				seg.setWorld(w)
			}
			s, e := 0, n
			if rng.Intn(2) == 0 {
				s, e = rng.Intn(n), rng.Intn(n+1)
			}
			got, want := walk(t, ram, s, e), walk(t, seg, s, e)
			if !slices.Equal(got, want) {
				t.Fatalf("sorted=%v trial %d [%d,%d): in-RAM pieces %v, segment pieces %v", sorted, trial, s, e, got, want)
			}
		}
	}
}
