package segment

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/data"
	"repro/internal/lru"
)

// Store is the read side of a segment file: it keeps only the header, the
// table of contents (counts, zone maps) and a column directory resident,
// reads the columns a query asks for on demand through a byte-bounded LRU
// cache, and exposes the whole thing as a data.PointSource. A Store is safe
// for concurrent readers; columns are immutable once read and stay valid
// for callers still holding them after eviction.
type Store struct {
	r       io.ReaderAt
	closer  io.Closer
	name    string
	version uint32
	hasTime bool
	sorted  bool
	attrs   []string
	all     data.Columns
	stamp   uint64

	counts []int
	starts []int // cumulative point index; starts[nb] == Len()
	zones  []data.Zone

	// dir is the column directory: the payload of block b's column c (in
	// file order X, Y, [T], attributes) is dir[b*ncols+c]. Every entry's
	// encoding and length were validated at Open.
	dir   []colSpan
	ncols int

	// mu guards cache only. A miss reads outside it, so two concurrent
	// misses on one column may both read it — harmless, the values are
	// identical.
	mu    sync.Mutex
	cache *lru.Cache[colKey, column]
}

// colSpan locates one column payload in the file.
type colSpan struct {
	off int64
	n   int
}

// colKey names one cached column.
type colKey struct{ block, col int }

// column is one read column: floats for X, Y and attributes, times for T.
type column struct {
	f []float64
	t []int64
}

// File-order column positions within a block; attributes follow X, Y and,
// when present, T.
const (
	colX = 0
	colY = 1
	colT = 2
)

// StoreOption configures an opened Store.
type StoreOption func(*Store)

// WithCacheBytes bounds the column cache (default DefaultCacheBytes). 0
// keeps no columns resident between reads — every access reads the file,
// the fully out-of-core mode.
func WithCacheBytes(n int64) StoreOption {
	return func(s *Store) {
		if n >= 0 {
			s.cache = lru.New[colKey, column](n)
		}
	}
}

// Open opens a segment file by path.
func Open(path string, opts ...StoreOption) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := OpenReaderAt(f, fi.Size(), opts...)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// OpenReaderAt opens a segment from any random-access reader of the given
// size (an os.File, an mmap-backed region, a bytes.Reader in tests).
func OpenReaderAt(r io.ReaderAt, size int64, opts ...StoreOption) (*Store, error) {
	s := &Store{r: r, cache: lru.New[colKey, column](DefaultCacheBytes)}
	for _, o := range opts {
		o(s)
	}
	if err := s.load(size); err != nil {
		return nil, err
	}
	s.all = data.AllColumns(s)
	s.stamp = data.NewStamp()
	return s, nil
}

// Close releases the underlying file (when the store owns one) and drops
// the cache.
func (s *Store) Close() error {
	s.mu.Lock()
	s.cache.Clear()
	s.mu.Unlock()
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// headLen is the fixed part of the header: magic, version, block size,
// flags.
const headLen = 13

// load parses the header, trailer, TOC and column directory. Every bound is
// checked before it sizes an allocation, so a corrupt file errors instead
// of panicking or allocating more than its own size.
func (s *Store) load(size int64) error {
	if size < 16 {
		return fmt.Errorf("segment: file too small (%d bytes)", size)
	}
	trailer := make([]byte, 12)
	if _, err := s.r.ReadAt(trailer, size-12); err != nil {
		return fmt.Errorf("segment: reading trailer: %w", err)
	}
	if [4]byte(trailer[8:12]) != magicTail {
		return fmt.Errorf("segment: bad trailer magic %q", trailer[8:12])
	}
	tocOff := int64(binary.LittleEndian.Uint64(trailer))
	if tocOff < headLen || tocOff > size-12 {
		return fmt.Errorf("segment: TOC offset %d out of range", tocOff)
	}

	// Header.
	head := make([]byte, headLen)
	if _, err := s.r.ReadAt(head, 0); err != nil {
		return fmt.Errorf("segment: reading header: %w", err)
	}
	if [4]byte(head[:4]) != magicHead {
		return fmt.Errorf("segment: bad magic %q", head[:4])
	}
	s.version = binary.LittleEndian.Uint32(head[4:])
	if s.version != Version {
		return fmt.Errorf("segment: unsupported format version %d (reader supports %d)", s.version, Version)
	}
	// head[8:12] is the writer's nominal block size; the TOC's block
	// spans are what the reader uses.
	s.hasTime = head[12]&flagHasTime != 0
	// Variable-length tail of the header: name and attribute names.
	// Bounded by the TOC offset; read it in one shot (names are tiny).
	nameBuf := make([]byte, min(tocOff-headLen, 1<<20))
	if _, err := s.r.ReadAt(nameBuf, headLen); err != nil && err != io.EOF {
		return fmt.Errorf("segment: reading header names: %w", err)
	}
	pos := 0
	readStr := func() (string, error) {
		if pos+2 > len(nameBuf) {
			return "", fmt.Errorf("segment: truncated header string")
		}
		n := int(binary.LittleEndian.Uint16(nameBuf[pos:]))
		pos += 2
		if pos+n > len(nameBuf) {
			return "", fmt.Errorf("segment: truncated header string")
		}
		v := string(nameBuf[pos : pos+n])
		pos += n
		return v, nil
	}
	var err error
	if s.name, err = readStr(); err != nil {
		return err
	}
	if pos+2 > len(nameBuf) {
		return fmt.Errorf("segment: truncated attribute count")
	}
	nattrs := int(binary.LittleEndian.Uint16(nameBuf[pos:]))
	pos += 2
	if 2*nattrs > len(nameBuf)-pos {
		return fmt.Errorf("segment: %d attribute names cannot fit the header", nattrs)
	}
	s.attrs = make([]string, nattrs)
	for a := range s.attrs {
		if s.attrs[a], err = readStr(); err != nil {
			return err
		}
	}
	headEnd := headLen + int64(pos)

	// TOC.
	tocBuf := make([]byte, size-12-tocOff)
	if _, err := s.r.ReadAt(tocBuf, tocOff); err != nil {
		return fmt.Errorf("segment: reading TOC: %w", err)
	}
	if len(tocBuf) < 5 {
		return fmt.Errorf("segment: truncated TOC")
	}
	nb := int64(binary.LittleEndian.Uint32(tocBuf))
	if entry := int64(12 + zoneSize(s.hasTime, nattrs)); nb > int64(len(tocBuf)-5)/entry {
		return fmt.Errorf("segment: TOC of %d bytes cannot hold %d blocks", len(tocBuf), nb)
	}
	s.sorted = tocBuf[4] != 0
	tpos := 5
	offsets := make([]int64, nb+1) // offsets[nb] is the TOC offset (read bound)
	s.counts = make([]int, nb)
	s.starts = make([]int, nb+1)
	s.zones = make([]data.Zone, nb)
	for b := range s.counts {
		offsets[b] = int64(binary.LittleEndian.Uint64(tocBuf[tpos:]))
		s.counts[b] = int(binary.LittleEndian.Uint32(tocBuf[tpos+8:]))
		tpos += 12
		z, n, err := decodeZone(tocBuf[tpos:], s.hasTime, nattrs)
		if err != nil {
			return fmt.Errorf("segment: TOC entry %d: %w", b, err)
		}
		s.zones[b] = z
		tpos += n
		if s.counts[b] <= 0 {
			return fmt.Errorf("segment: block %d has count %d", b, s.counts[b])
		}
		s.starts[b+1] = s.starts[b] + s.counts[b]
	}
	offsets[nb] = tocOff
	// Blocks tile [headEnd, tocOff) in order, none empty.
	prev := headEnd
	for b, off := range offsets {
		if off < prev || (b > 0 && off == prev) {
			return fmt.Errorf("segment: block %d offset %d out of order (previous bound %d)", b, off, prev)
		}
		prev = off
	}
	return s.loadDir(offsets)
}

// loadDir reads every block's column headers (5 bytes each) into the column
// directory, checking each encoding byte, each payload length against the
// block's point count, and that the columns fill the block exactly.
func (s *Store) loadDir(offsets []int64) error {
	s.ncols = 2 + len(s.attrs)
	if s.hasTime {
		s.ncols++
	}
	s.dir = make([]colSpan, len(s.counts)*s.ncols)
	hdr := make([]byte, 5)
	for b, count := range s.counts {
		pos, end := offsets[b], offsets[b+1]
		for c := 0; c < s.ncols; c++ {
			if pos+5 > end {
				return fmt.Errorf("segment: block %d: truncated header of column %d", b, c)
			}
			if _, err := s.r.ReadAt(hdr, pos); err != nil {
				return fmt.Errorf("segment: block %d: reading column %d header: %w", b, c, err)
			}
			enc, n := hdr[0], int64(binary.LittleEndian.Uint32(hdr[1:]))
			pos += 5
			if pos+n > end {
				return fmt.Errorf("segment: block %d: column %d payload overruns the block", b, c)
			}
			if s.hasTime && c == colT {
				// 9 header bytes, then at most 64 bits per delta.
				if enc != encDeltaT || n < 9 || n > 9+(int64(count-1)*64+7)/8 {
					return fmt.Errorf("segment: block %d: bad time column (encoding %d, %d bytes)", b, enc, n)
				}
			} else if enc != encRawF64 || n != int64(count)*8 {
				return fmt.Errorf("segment: block %d: bad float column %d (encoding %d, %d bytes for %d points)",
					b, c, enc, n, count)
			}
			s.dir[b*s.ncols+c] = colSpan{off: pos, n: int(n)}
			pos += n
		}
		if pos != end {
			return fmt.Errorf("segment: block %d: %d bytes after its last column", b, end-pos)
		}
	}
	return nil
}

// PointSource implementation.

// Name returns the data set name recorded in the header.
func (s *Store) Name() string { return s.name }

// Len returns the total number of points.
func (s *Store) Len() int { return s.starts[len(s.starts)-1] }

// Stamp returns the store's process-unique data identity, issued at Open.
func (s *Store) Stamp() uint64 { return s.stamp }

// AttrNames returns the attribute names in column order.
func (s *Store) AttrNames() []string { return s.attrs }

// HasTime reports whether the segment carries timestamps.
func (s *Store) HasTime() bool { return s.hasTime }

// TimeSorted reports whether timestamps are globally non-decreasing.
func (s *Store) TimeSorted() bool { return s.hasTime && s.sorted }

// NumBlocks returns the block count.
func (s *Store) NumBlocks() int { return len(s.counts) }

// BlockSpan returns the absolute point range [lo, hi) of block b.
func (s *Store) BlockSpan(b int) (lo, hi int) { return s.starts[b], s.starts[b+1] }

// Zone returns block b's zone map (resident; no IO).
func (s *Store) Zone(b int) data.Zone { return s.zones[b] }

// CacheStats snapshots the column cache counters; Entries counts columns.
func (s *Store) CacheStats() lru.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Stats()
}

// Block returns block b with every column: Read over all of them.
func (s *Store) Block(b int) (*data.Block, error) { return s.Read(b, s.all) }

// Read returns block b projected to cols, each column from the cache or
// the file. Columns outside the projection are nil.
func (s *Store) Read(b int, cols data.Columns) (*data.Block, error) {
	blk := &data.Block{Base: s.starts[b]}
	var err error
	if blk.X, err = s.floats(b, colX); err != nil {
		return nil, err
	}
	if blk.Y, err = s.floats(b, colY); err != nil {
		return nil, err
	}
	attr0 := colY + 1
	if s.hasTime {
		attr0++
		if cols.T {
			c, err := s.column(b, colT)
			if err != nil {
				return nil, err
			}
			blk.T = c.t
		}
	}
	if len(s.attrs) > 0 {
		blk.Attr = make([][]float64, len(s.attrs))
	}
	for _, a := range cols.Attrs {
		if a >= len(s.attrs) {
			return nil, fmt.Errorf("segment: attribute %d of %d requested", a, len(s.attrs))
		}
		if a >= 0 && blk.Attr[a] == nil {
			if blk.Attr[a], err = s.floats(b, attr0+a); err != nil {
				return nil, err
			}
		}
	}
	return blk, nil
}

func (s *Store) floats(b, c int) ([]float64, error) {
	col, err := s.column(b, c)
	return col.f, err
}

// column returns block b's column c, reading it on a cache miss.
func (s *Store) column(b, c int) (column, error) {
	k := colKey{b, c}
	s.mu.Lock()
	col, ok := s.cache.Get(k)
	s.mu.Unlock()
	if ok {
		return col, nil
	}
	span := s.dir[b*s.ncols+c]
	count := s.counts[b]
	if s.hasTime && c == colT {
		payload := make([]byte, span.n)
		if _, err := s.r.ReadAt(payload, span.off); err != nil {
			return column{}, fmt.Errorf("segment: reading block %d time column: %w", b, err)
		}
		t, err := decodeTime(payload, count)
		if err != nil {
			return column{}, fmt.Errorf("segment: block %d: %w", b, err)
		}
		col.t = t
	} else {
		col.f = make([]float64, count)
		if err := readF64(s.r, span.off, col.f); err != nil {
			return column{}, fmt.Errorf("segment: reading block %d column %d: %w", b, c, err)
		}
	}
	s.mu.Lock()
	s.cache.Add(k, col, int64(count)*8)
	s.mu.Unlock()
	return col, nil
}
