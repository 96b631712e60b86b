// Package segment implements the on-disk columnar point store behind the
// data.PointSource interface: an append-only file of fixed-size blocks
// (DefaultBlockSize points) holding one encoded payload per column, a
// per-block zone map (min/max for x, y, t, and every attribute) in the
// footer table of contents, and on the read side column projection: Open
// records where every column payload lives, a read fetches only the columns
// a query touches — a raw column straight into its final slice — and a
// byte-bounded cache keyed by (block, column) keeps them, so data sets can
// exceed RAM.
//
// Format v1 ("USEG", little-endian throughout):
//
//	header:  magic "USEG" | u32 version | u32 blockSize | u8 flags
//	         (bit0 hasTime) | u16 nameLen | name
//	         | u16 attrCount | per attr: u16 nameLen | name
//	blocks:  per block, per column in order X, Y, [T], attrs:
//	         u8 encoding | u32 payloadLen | payload
//	toc:     u32 numBlocks | u8 timeSorted | per block:
//	         u64 offset | u32 count | zone
//	         zone: x{f64 min, f64 max, u8 hasNaN} | y{...}
//	               | [i64 minT, i64 maxT] | per attr {...}
//	trailer: u64 tocOffset | magic "GESU"
//
// The timeSorted flag lives in the TOC rather than the header because the
// writer only knows it after the last point has streamed through.
//
// Column encodings: raw little-endian float64 (coordinates and attributes
// in v1 — zero transcoding cost, bit-exact round trip incl. NaN payloads,
// ±0 and denormals), and delta + bit-packed zigzag for the time column
// (timestamps are near-sorted seconds, so deltas are tiny). The version
// field gates future encodings (XOR-compressed floats) without breaking
// old readers.
package segment

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/data"
)

// DefaultBlockSize is the points-per-block default, shared with the in-RAM
// adapter so segment-backed and in-RAM scans prune at the same granularity.
const DefaultBlockSize = data.DefaultBlockSize

// DefaultCacheBytes bounds the column cache of an opened Store.
const DefaultCacheBytes = 64 << 20

// Version is the format version this package writes.
const Version = 1

var (
	magicHead = [4]byte{'U', 'S', 'E', 'G'}
	magicTail = [4]byte{'G', 'E', 'S', 'U'}
)

const flagHasTime = 1 << 0

// Column encodings.
const (
	encRawF64 byte = 0 // count * 8 bytes of float64 bits
	encDeltaT byte = 1 // i64 first | u8 width | bit-packed zigzag deltas
)

// encodeF64 appends the raw little-endian encoding of vals to dst.
func encodeF64(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// littleEndian reports whether the host stores a float64 in the file's
// byte order, so a raw column can be read straight into its slice.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// readF64 fills out from the raw column payload at off: the bytes land
// directly in out's memory, and on a big-endian host each word is swapped
// in place. Bit-exact either way (no value passes through a float
// register).
func readF64(r io.ReaderAt, off int64, out []float64) error {
	if len(out) == 0 {
		return nil
	}
	p := unsafe.Pointer(&out[0])
	if _, err := r.ReadAt(unsafe.Slice((*byte)(p), len(out)*8), off); err != nil {
		return err
	}
	if !littleEndian {
		words := unsafe.Slice((*uint64)(p), len(out))
		for i, w := range words {
			words[i] = bits.ReverseBytes64(w)
		}
	}
	return nil
}

// zigzag maps signed deltas onto small unsigned codes (0,-1,1,-2,... →
// 0,1,2,3,...), so near-sorted timestamps pack into a few bits each.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeTime appends the delta + bit-packed encoding of t: the first
// timestamp verbatim, the max code width, then every successive delta
// zigzagged and packed width bits at a time (LSB-first).
func encodeTime(dst []byte, t []int64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t[0]))
	width := 0
	for i := 1; i < len(t); i++ {
		if w := bits.Len64(zigzag(t[i] - t[i-1])); w > width {
			width = w
		}
	}
	dst = append(dst, byte(width))
	if width == 0 {
		return dst
	}
	// Pack codes LSB-first, at most 8 bits per step so a 64-bit code plus a
	// partial byte never overflows the accumulator.
	var acc uint64
	nacc := 0
	for i := 1; i < len(t); i++ {
		code := zigzag(t[i] - t[i-1])
		rem := width
		for rem > 0 {
			take := 8 - nacc
			if take > rem {
				take = rem
			}
			acc |= (code & (1<<take - 1)) << nacc
			code >>= take
			nacc += take
			rem -= take
			if nacc == 8 {
				dst = append(dst, byte(acc))
				acc, nacc = 0, 0
			}
		}
	}
	if nacc > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// decodeTime decodes n timestamps written by encodeTime.
func decodeTime(payload []byte, n int) ([]int64, error) {
	if n < 1 || len(payload) < 9 {
		return nil, fmt.Errorf("segment: time column payload too short (%d bytes)", len(payload))
	}
	out := make([]int64, n)
	out[0] = int64(binary.LittleEndian.Uint64(payload))
	width := int(payload[8])
	if width > 64 {
		return nil, fmt.Errorf("segment: time column width %d out of range", width)
	}
	if width == 0 {
		for i := 1; i < n; i++ {
			out[i] = out[0]
		}
		return out, nil
	}
	want := 9 + ((n-1)*width+7)/8
	if len(payload) != want {
		return nil, fmt.Errorf("segment: time column payload is %d bytes, want %d", len(payload), want)
	}
	body := payload[9:]
	var acc uint64
	nacc := 0
	pos := 0
	for i := 1; i < n; i++ {
		var code uint64
		got := 0
		for got < width {
			if nacc == 0 {
				acc = uint64(body[pos])
				pos++
				nacc = 8
			}
			take := nacc
			if take > width-got {
				take = width - got
			}
			code |= (acc & (1<<take - 1)) << got
			acc >>= take
			nacc -= take
			got += take
		}
		out[i] = out[i-1] + unzigzag(code)
	}
	return out, nil
}

// zoneSize returns the encoded zone size for a schema.
func zoneSize(hasTime bool, attrs int) int {
	n := (2 + attrs) * 17 // {f64,f64,u8} per float column
	if hasTime {
		n += 16
	}
	return n
}

// encodeZone appends z for a schema with the given time presence.
func encodeZone(dst []byte, z data.Zone, hasTime bool) []byte {
	col := func(c data.ZoneCol) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Min))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Max))
		if c.HasNaN {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	col(z.X)
	col(z.Y)
	if hasTime {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(z.MinT))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(z.MaxT))
	}
	for _, a := range z.Attr {
		col(a)
	}
	return dst
}

// decodeZone reads one zone; returns the zone and bytes consumed.
func decodeZone(b []byte, hasTime bool, attrs int) (data.Zone, int, error) {
	want := zoneSize(hasTime, attrs)
	if len(b) < want {
		return data.Zone{}, 0, fmt.Errorf("segment: truncated zone (%d bytes, want %d)", len(b), want)
	}
	pos := 0
	col := func() data.ZoneCol {
		c := data.ZoneCol{
			Min: math.Float64frombits(binary.LittleEndian.Uint64(b[pos:])),
			Max: math.Float64frombits(binary.LittleEndian.Uint64(b[pos+8:])),
		}
		c.HasNaN = b[pos+16] != 0
		pos += 17
		return c
	}
	var z data.Zone
	z.X = col()
	z.Y = col()
	if hasTime {
		z.MinT = int64(binary.LittleEndian.Uint64(b[pos:]))
		z.MaxT = int64(binary.LittleEndian.Uint64(b[pos+8:]))
		pos += 16
	}
	z.Attr = make([]data.ZoneCol, attrs)
	for a := range z.Attr {
		z.Attr[a] = col()
	}
	return z, pos, nil
}
