package gpu

import (
	"fmt"
	"math"
)

// PooledBytes walks d's free lists and returns the texel bytes they hold.
func PooledBytes(d *Device) int64 {
	d.texMu.Lock()
	defer d.texMu.Unlock()
	var b int64
	for n, c := range d.texFree {
		b += int64(len(c.free)) * texelBytes(n)
	}
	return b
}

// FreeMarks walks d's free lists. It returns how many pooled textures are
// marked or, at the first marked texture with a texel whose bits differ from
// its mark, an error naming both.
func FreeMarks(d *Device) (marked int, err error) {
	d.texMu.Lock()
	defer d.texMu.Unlock()
	for n, c := range d.texFree {
		for i, f := range c.free {
			if !f.marked {
				continue
			}
			marked++
			want := math.Float64bits(f.fill)
			for j, v := range f.t.Data {
				if math.Float64bits(v) != want {
					return marked, fmt.Errorf("%d-texel free list, entry %d marked %v: texel %d holds %v",
						n, i, f.fill, j, v)
				}
			}
		}
	}
	return marked, nil
}
