package raster_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/mercator"
	"repro/internal/raster"
	"repro/internal/workload"
)

// perCallSlotIndex is the slot index as SlotIndex built it on every call
// before CompileRegions stored one with the layer: a counting sort of the
// positions in the concatenated Boundary lists by slot. Slot s's positions
// are pos[start[s]:start[s+1]].
func perCallSlotIndex(rs *raster.RegionSpans) (start, pos []int32) {
	var boundSlot []int32
	for k := 0; k < rs.Regions(); k++ {
		boundSlot = append(boundSlot, rs.BoundarySlots(k)...)
	}
	nslots := rs.Slots()
	start, pos = make([]int32, nslots+1), make([]int32, len(boundSlot))
	for _, s := range boundSlot {
		start[s+1]++
	}
	for s := 0; s < nslots; s++ {
		start[s+1] += start[s]
	}
	next := slices.Clone(start[:nslots])
	for q, s := range boundSlot {
		pos[next[s]] = int32(q)
		next[s]++
	}
	return start, pos
}

// checkSlotIndex compiles polys on tr and requires the compiled slot index
// to list, for every slot, exactly the per-call builder's positions.
func checkSlotIndex(t *testing.T, name string, tr raster.Transform, polys []geom.Polygon) {
	t.Helper()
	rs, err := raster.CompileRegions(context.Background(), tr, polys)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Slots() == 0 {
		t.Fatalf("%s: no boundary pixels, the case checks nothing", name)
	}
	start, pos := perCallSlotIndex(rs)
	si := rs.SlotIndex()
	for s := 0; s < rs.Slots(); s++ {
		if got, want := si.Positions(int32(s)), pos[start[s]:start[s+1]]; !slices.Equal(got, want) {
			t.Fatalf("%s: slot %d positions %v, want %v", name, s, got, want)
		}
	}
	// Every call hands out the stored index rather than a rebuilt one.
	if &rs.SlotIndex().Positions(0)[0] != &si.Positions(0)[0] {
		t.Fatalf("%s: SlotIndex rebuilt the index", name)
	}
}

// layerTransform is the join's display-resolution canvas over a layer.
func layerTransform(rs *data.RegionSet, resolution int) raster.Transform {
	b := rs.Bounds()
	return raster.SquareTransform(b, math.Max(b.Width(), b.Height())/float64(resolution))
}

func polygons(rs *data.RegionSet) []geom.Polygon {
	polys := make([]geom.Polygon, rs.Len())
	for k := range rs.Regions {
		polys[k] = rs.Regions[k].Poly
	}
	return polys
}

// TestSlotIndexMatchesPerCallBuilder: the slot index compiled with the layer
// equals the per-call builder's on the three scene layers at 1024 px, on
// polygons with holes, and on a tile of an ε-mode canvas.
func TestSlotIndexMatchesPerCallBuilder(t *testing.T) {
	tracts := workload.Tracts(3)
	for _, rs := range []*data.RegionSet{
		workload.Neighborhoods(2),
		tracts,
		data.GridRegions("grid64", mercator.NYCBounds(), 64, 64),
	} {
		checkSlotIndex(t, rs.Name, layerTransform(rs, 1024), polygons(rs))
	}

	box := func(x0, y0, x1, y1 float64) geom.Ring {
		return geom.RectRing(geom.BBox{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1})
	}
	holed := []geom.Polygon{
		{Outer: box(5, 5, 95, 95), Holes: []geom.Ring{box(20, 20, 45, 45), box(55, 55, 80, 80)}},
		{Outer: box(20, 20, 45, 45)},
		{
			Outer: geom.StarRing(geom.Point{X: 50, Y: 50}, 40, 18, 9),
			Holes: []geom.Ring{geom.StarRing(geom.Point{X: 50, Y: 50}, 12, 6, 5)},
		},
	}
	checkSlotIndex(t, "holes", raster.NewTransform(geom.BBox{MaxX: 100, MaxY: 100}, 97, 83), holed)

	// The ε mode sizes pixels to the error bound (diagonal <= ε) and draws
	// the canvas in texture-sized tiles; compile one from its middle.
	eps := workload.GroundMeters(15)
	full := raster.SquareTransform(tracts.Bounds(), eps/math.Sqrt2)
	if full.W <= 1024 || full.H <= 1024 {
		t.Fatalf("ε canvas %dx%d fits one tile; the case checks nothing", full.W, full.H)
	}
	checkSlotIndex(t, "ε tile", full.Sub(full.W/2, full.H/2, 1024, 1024), polygons(tracts))
}
