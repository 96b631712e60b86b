package geom

// ClipRingToBBox clips a ring against an axis-aligned box using the
// Sutherland–Hodgman algorithm. The result may be empty when the ring lies
// entirely outside the box. Clipping a non-convex ring against a convex
// window is well-defined and yields a single (possibly degenerate) ring.
func ClipRingToBBox(r Ring, b BBox) Ring {
	if len(r) == 0 || b.IsEmpty() {
		return nil
	}
	out := clipEdge(r, func(p Point) bool { return p.X >= b.MinX }, func(a, c Point) Point {
		t := (b.MinX - a.X) / (c.X - a.X)
		return Point{b.MinX, a.Y + t*(c.Y-a.Y)}
	})
	out = clipEdge(out, func(p Point) bool { return p.X <= b.MaxX }, func(a, c Point) Point {
		t := (b.MaxX - a.X) / (c.X - a.X)
		return Point{b.MaxX, a.Y + t*(c.Y-a.Y)}
	})
	out = clipEdge(out, func(p Point) bool { return p.Y >= b.MinY }, func(a, c Point) Point {
		t := (b.MinY - a.Y) / (c.Y - a.Y)
		return Point{a.X + t*(c.X-a.X), b.MinY}
	})
	out = clipEdge(out, func(p Point) bool { return p.Y <= b.MaxY }, func(a, c Point) Point {
		t := (b.MaxY - a.Y) / (c.Y - a.Y)
		return Point{a.X + t*(c.X-a.X), b.MaxY}
	})
	if len(out) < 3 {
		return nil
	}
	return out
}

// clipEdge runs one Sutherland–Hodgman pass against a half-plane described
// by inside, with cross computing the boundary intersection of an edge that
// crosses it.
func clipEdge(r Ring, inside func(Point) bool, cross func(a, b Point) Point) Ring {
	if len(r) == 0 {
		return nil
	}
	out := make(Ring, 0, len(r)+4)
	prev := r[len(r)-1]
	prevIn := inside(prev)
	for _, cur := range r {
		curIn := inside(cur)
		switch {
		case curIn && prevIn:
			out = append(out, cur)
		case curIn && !prevIn:
			out = append(out, cross(prev, cur), cur)
		case !curIn && prevIn:
			out = append(out, cross(prev, cur))
		}
		prev, prevIn = cur, curIn
	}
	return out
}

// ClipRingToHalfPlane keeps the part of the ring on the side of the line
// through o with normal nrm where (p-o)·nrm <= 0. The result may be empty.
func ClipRingToHalfPlane(r Ring, o, nrm Point) Ring {
	out := clipEdge(r,
		func(p Point) bool { return p.Sub(o).Dot(nrm) <= 0 },
		func(a, b Point) Point {
			da := a.Sub(o).Dot(nrm)
			db := b.Sub(o).Dot(nrm)
			t := da / (da - db)
			return a.Lerp(b, t)
		})
	if len(out) < 3 {
		return nil
	}
	return out
}

// ClipSegmentToBBox clips segment ab to box b using Liang–Barsky.
// ok is false when the segment lies entirely outside the box.
func ClipSegmentToBBox(a, bp Point, box BBox) (p0, p1 Point, ok bool) {
	dx, dy := bp.X-a.X, bp.Y-a.Y
	t0, t1 := 0.0, 1.0
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		r := q / p
		if p < 0 {
			if r > t1 {
				return false
			}
			if r > t0 {
				t0 = r
			}
		} else {
			if r < t0 {
				return false
			}
			if r < t1 {
				t1 = r
			}
		}
		return true
	}
	if !clip(-dx, a.X-box.MinX) || !clip(dx, box.MaxX-a.X) ||
		!clip(-dy, a.Y-box.MinY) || !clip(dy, box.MaxY-a.Y) {
		return Point{}, Point{}, false
	}
	return Point{a.X + t0*dx, a.Y + t0*dy}, Point{a.X + t1*dx, a.Y + t1*dy}, true
}
