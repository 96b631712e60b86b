package geom

// SimplifyLine reduces a polyline with the Douglas–Peucker algorithm,
// keeping every vertex farther than tol from the simplified chain. The first
// and last points are always retained.
func SimplifyLine(pts []Point, tol float64) []Point {
	if len(pts) <= 2 || tol <= 0 {
		out := make([]Point, len(pts))
		copy(out, pts)
		return out
	}
	keep := make([]bool, len(pts))
	keep[0], keep[len(pts)-1] = true, true
	dpMark(pts, 0, len(pts)-1, tol*tol, keep)
	out := make([]Point, 0, len(pts))
	for i, k := range keep {
		if k {
			out = append(out, pts[i])
		}
	}
	return out
}

func dpMark(pts []Point, lo, hi int, tol2 float64, keep []bool) {
	if hi-lo < 2 {
		return
	}
	maxD := -1.0
	maxI := -1
	for i := lo + 1; i < hi; i++ {
		d := SegmentDistSq(pts[i], pts[lo], pts[hi])
		if d > maxD {
			maxD, maxI = d, i
		}
	}
	if maxD <= tol2 {
		return
	}
	keep[maxI] = true
	dpMark(pts, lo, maxI, tol2, keep)
	dpMark(pts, maxI, hi, tol2, keep)
}

// SimplifyRing simplifies a ring with Douglas–Peucker while guaranteeing the
// result remains a ring (at least 3 vertices). The ring is split at its two
// most distant vertices so the closed shape is simplified consistently.
func SimplifyRing(r Ring, tol float64) Ring {
	if len(r) <= 4 || tol <= 0 {
		return r.Clone()
	}
	// Find two roughly mutually-farthest vertices: farthest from vertex 0,
	// then farthest from that.
	a := 0
	best := 0.0
	for i, p := range r {
		if d := p.DistSq(r[0]); d > best {
			best, a = d, i
		}
	}
	b := 0
	best = 0.0
	for i, p := range r {
		if d := p.DistSq(r[a]); d > best {
			best, b = d, i
		}
	}
	if a > b {
		a, b = b, a
	}
	if a == b {
		return r.Clone()
	}
	seg1 := SimplifyLine(append(Ring{}, r[a:b+1]...), tol)
	wrap := append(append(Ring{}, r[b:]...), r[:a+1]...)
	seg2 := SimplifyLine(wrap, tol)
	out := make(Ring, 0, len(seg1)+len(seg2))
	out = append(out, seg1...)
	if len(seg2) > 2 {
		out = append(out, seg2[1:len(seg2)-1]...)
	}
	if len(out) < 3 {
		return r.Clone()
	}
	return out
}
