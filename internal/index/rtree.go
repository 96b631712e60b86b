package index

import (
	"sort"

	"repro/internal/geom"
)

// RTree is a static STR-packed (Sort-Tile-Recursive) R-tree over rectangles
// with integer payloads. Urbane uses it over region bounding boxes so each
// point probe touches only the regions whose boxes contain it.
type RTree struct {
	root *rnode
}

type rnode struct {
	box      geom.BBox
	leaf     bool
	ids      []int32     // leaf payloads
	boxes    []geom.BBox // leaf payload boxes, parallel to ids
	children []*rnode
}

// RTreeFanout is the node capacity used by the STR packing.
const RTreeFanout = 16

type rentry struct {
	box geom.BBox
	id  int32
}

// BuildRTree bulk-loads an R-tree over the given boxes; payload i is the
// box's position in the input slice.
func BuildRTree(boxes []geom.BBox) *RTree {
	entries := make([]rentry, len(boxes))
	for i, b := range boxes {
		entries[i] = rentry{box: b, id: int32(i)}
	}
	return &RTree{root: strPack(entries)}
}

// strPack recursively packs entries into nodes using sort-tile-recursive.
func strPack(entries []rentry) *rnode {
	if len(entries) <= RTreeFanout {
		n := &rnode{leaf: true, box: geom.EmptyBBox()}
		for _, e := range entries {
			n.ids = append(n.ids, e.id)
			n.boxes = append(n.boxes, e.box)
			n.box = n.box.Union(e.box)
		}
		return n
	}
	// Sort by center X, slice into vertical strips of ~sqrt(#slabs) leaves,
	// sort each strip by center Y, cut into leaf-sized runs.
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].box.Center().X < entries[j].box.Center().X
	})
	leaves := (len(entries) + RTreeFanout - 1) / RTreeFanout
	stripCount := isqrt(leaves)
	if stripCount < 1 {
		stripCount = 1
	}
	perStrip := (len(entries) + stripCount - 1) / stripCount

	var children []*rnode
	for s := 0; s < len(entries); s += perStrip {
		e := min(s+perStrip, len(entries))
		strip := entries[s:e]
		sort.Slice(strip, func(i, j int) bool {
			return strip[i].box.Center().Y < strip[j].box.Center().Y
		})
		for r := 0; r < len(strip); r += RTreeFanout {
			re := min(r+RTreeFanout, len(strip))
			leaf := &rnode{leaf: true, box: geom.EmptyBBox()}
			for _, en := range strip[r:re] {
				leaf.ids = append(leaf.ids, en.id)
				leaf.boxes = append(leaf.boxes, en.box)
				leaf.box = leaf.box.Union(en.box)
			}
			children = append(children, leaf)
		}
	}
	// Pack upward until a single root remains.
	for len(children) > 1 {
		var parents []*rnode
		for i := 0; i < len(children); i += RTreeFanout {
			e := min(i+RTreeFanout, len(children))
			p := &rnode{box: geom.EmptyBBox()}
			for _, c := range children[i:e] {
				p.children = append(p.children, c)
				p.box = p.box.Union(c.box)
			}
			parents = append(parents, p)
		}
		children = parents
	}
	return children[0]
}

// SearchPoint calls visit with the payload of every box containing p.
func (t *RTree) SearchPoint(p geom.Point, visit func(id int32)) {
	if t.root == nil {
		return
	}
	var walk func(n *rnode)
	walk = func(n *rnode) {
		if !n.box.Contains(p) {
			return
		}
		if n.leaf {
			for i, b := range n.boxes {
				if b.Contains(p) {
					visit(n.ids[i])
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
}

func isqrt(n int) int {
	if n < 0 {
		return 0
	}
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
