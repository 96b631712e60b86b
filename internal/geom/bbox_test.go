package geom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyBBox(t *testing.T) {
	e := EmptyBBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBBox should be empty")
	}
	if e.Width() != 0 || e.Height() != 0 || e.Area() != 0 {
		t.Error("empty box should have zero dimensions")
	}
	if e.Contains(Point{0, 0}) {
		t.Error("empty box should contain nothing")
	}
	if !strings.Contains(e.String(), "empty") {
		t.Errorf("String = %q, want to mention empty", e.String())
	}
}

func TestNewBBoxNormalizesCorners(t *testing.T) {
	b := NewBBox(10, 20, -5, 3)
	want := BBox{-5, 3, 10, 20}
	if b != want {
		t.Errorf("NewBBox = %v, want %v", b, want)
	}
}

func TestBBoxOf(t *testing.T) {
	b := BBoxOf(Point{1, 5}, Point{-2, 3}, Point{4, -1})
	want := BBox{-2, -1, 4, 5}
	if b != want {
		t.Errorf("BBoxOf = %v, want %v", b, want)
	}
	if !BBoxOf().IsEmpty() {
		t.Error("BBoxOf() should be empty")
	}
}

func TestBBoxDimensions(t *testing.T) {
	b := BBox{0, 0, 4, 3}
	if b.Width() != 4 || b.Height() != 3 || b.Area() != 12 {
		t.Errorf("dims = %v/%v/%v, want 4/3/12", b.Width(), b.Height(), b.Area())
	}
	if c := b.Center(); c != (Point{2, 1.5}) {
		t.Errorf("Center = %v, want (2,1.5)", c)
	}
}

func TestBBoxContains(t *testing.T) {
	b := BBox{0, 0, 10, 10}
	for _, p := range []Point{{5, 5}, {0, 0}, {10, 10}, {0, 10}} {
		if !b.Contains(p) {
			t.Errorf("should contain %v", p)
		}
	}
	for _, p := range []Point{{-1, 5}, {5, 11}, {10.001, 5}} {
		if b.Contains(p) {
			t.Errorf("should not contain %v", p)
		}
	}
}

func TestBBoxIntersects(t *testing.T) {
	a := BBox{0, 0, 10, 10}
	cases := []struct {
		b    BBox
		want bool
	}{
		{BBox{5, 5, 15, 15}, true},
		{BBox{10, 10, 20, 20}, true}, // touching corner counts
		{BBox{11, 0, 20, 10}, false},
		{BBox{0, -20, 10, -11}, false},
		{BBox{2, 2, 3, 3}, true}, // fully inside
	}
	for i, tc := range cases {
		if got := a.Intersects(tc.b); got != tc.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, tc.want)
		}
		if got := tc.b.Intersects(a); got != tc.want {
			t.Errorf("case %d: Intersects not symmetric", i)
		}
	}
	if a.Intersects(EmptyBBox()) || EmptyBBox().Intersects(a) {
		t.Error("nothing intersects the empty box")
	}
}

func TestBBoxIntersectUnion(t *testing.T) {
	a := BBox{0, 0, 10, 10}
	b := BBox{5, 5, 15, 15}
	if got, want := a.Intersect(b), (BBox{5, 5, 10, 10}); got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Union(b), (BBox{0, 0, 15, 15}); got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got := a.Intersect(BBox{20, 20, 30, 30}); !got.IsEmpty() {
		t.Errorf("disjoint Intersect = %v, want empty", got)
	}
	if got := a.Union(EmptyBBox()); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
}

func TestBBoxExpand(t *testing.T) {
	b := BBox{0, 0, 10, 10}
	if got, want := b.Expand(2), (BBox{-2, -2, 12, 12}); got != want {
		t.Errorf("Expand(2) = %v, want %v", got, want)
	}
	if got, want := b.Expand(-2), (BBox{2, 2, 8, 8}); got != want {
		t.Errorf("Expand(-2) = %v, want %v", got, want)
	}
	if got := b.Expand(-6); !got.IsEmpty() {
		t.Errorf("over-shrunk box = %v, want empty", got)
	}
}

func TestBBoxCorners(t *testing.T) {
	b := BBox{0, 0, 2, 3}
	c := b.Corners()
	ring := Ring{c[0], c[1], c[2], c[3]}
	if !ring.IsCCW() {
		t.Error("corners should wind counter-clockwise")
	}
	if ring.Area() != 6 {
		t.Errorf("corner ring area = %v, want 6", ring.Area())
	}
}

// Property: Union is commutative, associative in effect, and contains both
// inputs.
func TestBBoxUnionProperties(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 int8) bool {
		a := NewBBox(float64(x0), float64(y0), float64(x1), float64(y1))
		b := NewBBox(float64(x2), float64(y2), float64(x3), float64(y3))
		u := a.Union(b)
		return u == b.Union(a) && within(a, u) && within(b, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// within reports whether o lies inside b; an empty o lies inside
// everything.
func within(o, b BBox) bool {
	return o.IsEmpty() || o.MinX >= b.MinX && o.MaxX <= b.MaxX && o.MinY >= b.MinY && o.MaxY <= b.MaxY
}

// Property: the intersection is contained in both inputs, and Intersects
// agrees with non-emptiness of Intersect.
func TestBBoxIntersectProperties(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 int8) bool {
		a := NewBBox(float64(x0), float64(y0), float64(x1), float64(y1))
		b := NewBBox(float64(x2), float64(y2), float64(x3), float64(y3))
		in := a.Intersect(b)
		if in.IsEmpty() != !a.Intersects(b) {
			return false
		}
		if in.IsEmpty() {
			return true
		}
		return within(in, a) && within(in, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
