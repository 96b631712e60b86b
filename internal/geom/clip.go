package geom

// ClipRingToHalfPlane keeps the part of the ring on the side of the line
// through o with normal nrm where (p-o)·nrm <= 0, by one Sutherland–Hodgman
// pass. The result may be empty.
func ClipRingToHalfPlane(r Ring, o, nrm Point) Ring {
	if len(r) == 0 {
		return nil
	}
	out := make(Ring, 0, len(r)+4)
	prev := r[len(r)-1]
	prevD := prev.Sub(o).Dot(nrm)
	for _, cur := range r {
		curD := cur.Sub(o).Dot(nrm)
		switch curIn, prevIn := curD <= 0, prevD <= 0; {
		case curIn && prevIn:
			out = append(out, cur)
		case curIn && !prevIn:
			out = append(out, prev.Lerp(cur, prevD/(prevD-curD)), cur)
		case !curIn && prevIn:
			out = append(out, prev.Lerp(cur, prevD/(prevD-curD)))
		}
		prev, prevD = cur, curD
	}
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
