package data

import (
	"testing"

	"repro/internal/geom"
)

func smallSet() *PointSet {
	return &PointSet{
		Name: "test",
		X:    []float64{0, 10, 5, 2},
		Y:    []float64{0, 10, 3, 8},
		T:    []int64{40, 10, 30, 20},
		Attrs: []Column{
			{Name: "fare", Values: []float64{1, 2, 3, 4}},
		},
	}
}

func TestPointSetValidate(t *testing.T) {
	ps := smallSet()
	if err := ps.Validate(); err != nil {
		t.Errorf("valid set: %v", err)
	}
	ps.Y = ps.Y[:3]
	if err := ps.Validate(); err == nil {
		t.Error("short Y should fail validation")
	}
	ps = smallSet()
	ps.T = ps.T[:2]
	if err := ps.Validate(); err == nil {
		t.Error("short T should fail validation")
	}
	ps = smallSet()
	ps.Attrs[0].Values = ps.Attrs[0].Values[:1]
	if err := ps.Validate(); err == nil {
		t.Error("short attr should fail validation")
	}
	// Nil T is allowed (atemporal data sets).
	ps = smallSet()
	ps.T = nil
	if err := ps.Validate(); err != nil {
		t.Errorf("nil T should be valid: %v", err)
	}
}

func TestAttrLookup(t *testing.T) {
	ps := smallSet()
	if col := ps.Attr("fare"); col == nil || col[2] != 3 {
		t.Errorf("Attr(fare) = %v", col)
	}
	if col := ps.Attr("missing"); col != nil {
		t.Errorf("Attr(missing) = %v, want nil", col)
	}
	names := ps.AttrNames()
	if len(names) != 1 || names[0] != "fare" {
		t.Errorf("AttrNames = %v", names)
	}
}

func TestAddAttr(t *testing.T) {
	ps := smallSet()
	ps.AddAttr("tip", []float64{0.1, 0.2, 0.3, 0.4})
	if ps.Attr("tip") == nil {
		t.Error("added attr should be retrievable")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched AddAttr should panic")
		}
	}()
	ps.AddAttr("bad", []float64{1})
}

func TestBounds(t *testing.T) {
	ps := smallSet()
	want := geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if b := ps.Bounds(); b != want {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
	empty := &PointSet{}
	if !empty.Bounds().IsEmpty() {
		t.Error("empty set bounds should be empty")
	}
}

func TestTimeRange(t *testing.T) {
	ps := smallSet()
	tmin, tmax, ok := ps.TimeRange()
	if !ok || tmin != 10 || tmax != 40 {
		t.Errorf("TimeRange = %d,%d,%v want 10,40,true", tmin, tmax, ok)
	}
	if _, _, ok := (&PointSet{X: []float64{1}, Y: []float64{1}}).TimeRange(); ok {
		t.Error("no time column should report !ok")
	}
}

func TestSortByTimeAndWindow(t *testing.T) {
	ps := smallSet()
	ps.SortByTime()
	for i := 1; i < ps.Len(); i++ {
		if ps.T[i-1] > ps.T[i] {
			t.Fatalf("not sorted: %v", ps.T)
		}
	}
	// Attribute rows must follow their points: the point at t=30 is (5,3)
	// with fare 3.
	found := false
	for i := range ps.T {
		if ps.T[i] == 30 {
			if ps.X[i] != 5 || ps.Y[i] != 3 || ps.Attrs[0].Values[i] != 3 {
				t.Errorf("row for t=30 scrambled: x=%v y=%v fare=%v",
					ps.X[i], ps.Y[i], ps.Attrs[0].Values[i])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("t=30 row lost")
	}

	lo, hi := ps.TimeWindow(15, 35)
	if hi-lo != 2 {
		t.Errorf("window [15,35) = %d points, want 2", hi-lo)
	}
	for i := lo; i < hi; i++ {
		if ps.T[i] < 15 || ps.T[i] >= 35 {
			t.Errorf("point %d time %d outside window", i, ps.T[i])
		}
	}
	// Empty window.
	lo, hi = ps.TimeWindow(100, 200)
	if lo != hi {
		t.Errorf("empty window = [%d,%d)", lo, hi)
	}
}

func TestSelect(t *testing.T) {
	ps := smallSet()
	sel := ps.Select([]int{3, 0})
	if sel.Len() != 2 || sel.X[0] != 2 || sel.X[1] != 0 ||
		sel.Attrs[0].Values[0] != 4 || sel.T[1] != 40 {
		t.Errorf("Select = %+v", sel)
	}
	// Select on a set without time column.
	noT := &PointSet{X: []float64{1, 2}, Y: []float64{3, 4}}
	got := noT.Select([]int{1})
	if got.T != nil || got.X[0] != 2 {
		t.Errorf("Select without T = %+v", got)
	}
}
