package segment

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/data"
)

// Writer streams points into a segment file: rows accumulate into an
// in-memory block buffer, each full block is encoded and written out with
// its zone map retained for the footer, and Close appends the table of
// contents. Memory use is one block plus the TOC, independent of the data
// size — the write side of the out-of-core contract.
type Writer struct {
	w         io.Writer
	off       int64
	blockSize int
	name      string

	started    bool
	hasTime    bool
	attrNames  []string
	timeSorted bool
	lastT      int64
	count      int

	// current block buffers
	x, y  []float64
	t     []int64
	attrs [][]float64

	// footer state
	offsets []int64
	counts  []int
	zones   []data.Zone

	err error
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithBlockSize sets the points-per-block (default DefaultBlockSize).
func WithBlockSize(n int) WriterOption {
	return func(w *Writer) {
		if n > 0 {
			w.blockSize = n
		}
	}
}

// NewWriter returns a segment writer over w. The schema (attributes, time
// presence) is fixed by the first appended batch; every later batch must
// match it.
func NewWriter(w io.Writer, opts ...WriterOption) *Writer {
	sw := &Writer{w: w, blockSize: DefaultBlockSize, timeSorted: true}
	for _, o := range opts {
		o(sw)
	}
	return sw
}

// Append appends every point of ps to the segment.
func (w *Writer) Append(ps *data.PointSet) error {
	if w.err != nil {
		return w.err
	}
	if err := ps.Validate(); err != nil {
		return w.fail(err)
	}
	if !w.started {
		w.started = true
		w.hasTime = ps.T != nil
		w.attrNames = append([]string(nil), ps.AttrNames()...)
		w.name = ps.Name
		w.attrs = make([][]float64, len(w.attrNames))
		if err := w.writeHeader(); err != nil {
			return w.fail(err)
		}
	} else {
		if (ps.T != nil) != w.hasTime {
			return w.fail(fmt.Errorf("segment: batch time column mismatch (segment hasTime=%v)", w.hasTime))
		}
		names := ps.AttrNames()
		if len(names) != len(w.attrNames) {
			return w.fail(fmt.Errorf("segment: batch has %d attributes, segment has %d", len(names), len(w.attrNames)))
		}
		for i, n := range names {
			if n != w.attrNames[i] {
				return w.fail(fmt.Errorf("segment: batch attribute %d is %q, segment has %q", i, n, w.attrNames[i]))
			}
		}
	}
	for i := 0; i < ps.Len(); i++ {
		w.x = append(w.x, ps.X[i])
		w.y = append(w.y, ps.Y[i])
		if w.hasTime {
			t := ps.T[i]
			if w.count > 0 && t < w.lastT {
				w.timeSorted = false
			}
			w.lastT = t
			w.t = append(w.t, t)
		}
		for a := range w.attrs {
			w.attrs[a] = append(w.attrs[a], ps.Attrs[a].Values[i])
		}
		w.count++
		if len(w.x) >= w.blockSize {
			if err := w.flushBlock(); err != nil {
				return w.fail(err)
			}
		}
	}
	return nil
}

// Close flushes the partial block and writes the TOC and trailer. The
// Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if !w.started {
		// Empty segment: header with an empty schema, then the footer.
		w.started = true
		if err := w.writeHeader(); err != nil {
			return w.fail(err)
		}
	}
	if len(w.x) > 0 {
		if err := w.flushBlock(); err != nil {
			return w.fail(err)
		}
	}
	tocOff := w.off
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(w.offsets)))
	if w.hasTime && w.timeSorted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for b := range w.offsets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.offsets[b]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.counts[b]))
		buf = encodeZone(buf, w.zones[b], w.hasTime)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tocOff))
	buf = append(buf, magicTail[:]...)
	if err := w.write(buf); err != nil {
		return w.fail(err)
	}
	w.err = fmt.Errorf("segment: writer closed")
	return nil
}

func (w *Writer) fail(err error) error {
	w.err = err
	return err
}

func (w *Writer) write(b []byte) error {
	n, err := w.w.Write(b)
	w.off += int64(n)
	return err
}

func (w *Writer) writeHeader() error {
	buf := append([]byte(nil), magicHead[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.blockSize))
	var flags byte
	if w.hasTime {
		flags |= flagHasTime
	}
	buf = append(buf, flags)
	buf = appendString(buf, w.name)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.attrNames)))
	for _, n := range w.attrNames {
		buf = appendString(buf, n)
	}
	return w.write(buf)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// flushBlock encodes and writes the buffered block.
func (w *Writer) flushBlock() error {
	n := len(w.x)
	w.offsets = append(w.offsets, w.off)
	w.counts = append(w.counts, n)

	z := data.Zone{X: data.EmptyZoneCol(), Y: data.EmptyZoneCol(),
		Attr: make([]data.ZoneCol, len(w.attrs))}
	for a := range z.Attr {
		z.Attr[a] = data.EmptyZoneCol()
	}
	for i := 0; i < n; i++ {
		z.X.Observe(w.x[i])
		z.Y.Observe(w.y[i])
		for a := range w.attrs {
			z.Attr[a].Observe(w.attrs[a][i])
		}
	}
	if w.hasTime {
		z.MinT, z.MaxT = w.t[0], w.t[0]
		for _, t := range w.t[1:] {
			if t < z.MinT {
				z.MinT = t
			}
			if t > z.MaxT {
				z.MaxT = t
			}
		}
	}
	w.zones = append(w.zones, z)

	var buf []byte
	writeCol := func(enc byte, payload []byte) {
		buf = append(buf, enc)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = append(buf, payload...)
	}
	writeCol(encRawF64, encodeF64(nil, w.x))
	writeCol(encRawF64, encodeF64(nil, w.y))
	if w.hasTime {
		writeCol(encDeltaT, encodeTime(nil, w.t))
	}
	for a := range w.attrs {
		writeCol(encRawF64, encodeF64(nil, w.attrs[a]))
	}
	if err := w.write(buf); err != nil {
		return err
	}
	w.x, w.y, w.t = w.x[:0], w.y[:0], w.t[:0]
	for a := range w.attrs {
		w.attrs[a] = w.attrs[a][:0]
	}
	return nil
}

// Write encodes ps into a single segment on w — the one-shot form used by
// tests, benchmarks, and the server's -segments materialization.
func Write(w io.Writer, ps *data.PointSet, opts ...WriterOption) error {
	sw := NewWriter(w, opts...)
	if err := sw.Append(ps); err != nil {
		return err
	}
	return sw.Close()
}
