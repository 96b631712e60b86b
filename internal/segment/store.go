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

// Store is the read side of a segment file: it keeps only the header and
// the table of contents (offsets, counts, zone maps) resident, reads and
// decodes blocks on demand through a byte-bounded LRU cache, and exposes
// the whole thing as a data.PointSource. A Store is safe for concurrent
// readers; the cache serializes decodes, and evicted blocks stay valid for
// callers still holding them (blocks are immutable once decoded).
type Store struct {
	r         io.ReaderAt
	closer    io.Closer
	name      string
	version   uint32
	blockSize int
	hasTime   bool
	sorted    bool
	attrs     []string
	stamp     uint64

	offsets []int64 // per block; offsets[nb] is the TOC offset (read bound)
	counts  []int
	starts  []int // cumulative point index; starts[nb] == Len()
	zones   []data.Zone

	// mu guards cache and is held across a miss's read and decode, so
	// concurrent readers of one cold block decode it once.
	mu    sync.Mutex
	cache *lru.Cache[int, *data.Block]

	// scratch pools encoded-block read buffers across decodes.
	scratch sync.Pool
}

// StoreOption configures an opened Store.
type StoreOption func(*Store)

// WithCacheBytes bounds the decoded-block cache (default
// DefaultCacheBytes). 0 keeps no blocks resident between reads — every
// access decodes, the fully out-of-core mode.
func WithCacheBytes(n int64) StoreOption {
	return func(s *Store) {
		if n >= 0 {
			s.cache = lru.New[int, *data.Block](n)
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
	s := &Store{r: r, cache: lru.New[int, *data.Block](DefaultCacheBytes)}
	s.scratch.New = func() any { return new([]byte) }
	for _, o := range opts {
		o(s)
	}
	if err := s.load(size); err != nil {
		return nil, err
	}
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

// load parses the header, trailer, and TOC.
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
	if tocOff < 0 || tocOff > size-12 {
		return fmt.Errorf("segment: TOC offset %d out of range", tocOff)
	}

	// Header.
	head := make([]byte, 13)
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
	s.blockSize = int(binary.LittleEndian.Uint32(head[8:]))
	s.hasTime = head[12]&flagHasTime != 0
	// Variable-length tail of the header: name and attribute names.
	// Bounded by the TOC offset; read it in one shot (names are tiny).
	nameBuf := make([]byte, min64(tocOff-13, 1<<20))
	if _, err := s.r.ReadAt(nameBuf, 13); err != nil && err != io.EOF {
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
	s.attrs = make([]string, nattrs)
	for a := range s.attrs {
		if s.attrs[a], err = readStr(); err != nil {
			return err
		}
	}

	// TOC.
	tocBuf := make([]byte, size-12-tocOff)
	if _, err := s.r.ReadAt(tocBuf, tocOff); err != nil {
		return fmt.Errorf("segment: reading TOC: %w", err)
	}
	if len(tocBuf) < 5 {
		return fmt.Errorf("segment: truncated TOC")
	}
	nb := int(binary.LittleEndian.Uint32(tocBuf))
	s.sorted = tocBuf[4] != 0
	tpos := 5
	s.offsets = make([]int64, nb+1)
	s.counts = make([]int, nb)
	s.starts = make([]int, nb+1)
	s.zones = make([]data.Zone, nb)
	for b := 0; b < nb; b++ {
		if tpos+12 > len(tocBuf) {
			return fmt.Errorf("segment: truncated TOC entry %d", b)
		}
		s.offsets[b] = int64(binary.LittleEndian.Uint64(tocBuf[tpos:]))
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
	s.offsets[nb] = tocOff
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
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

// BlockSize returns the nominal points-per-block.
func (s *Store) BlockSize() int { return s.blockSize }

// CacheStats snapshots the decoded-block cache counters.
func (s *Store) CacheStats() lru.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Stats()
}

// Block returns decoded block b, from cache or from disk. The block is
// immutable and remains valid even if evicted while in use.
func (s *Store) Block(b int) (*data.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if blk, ok := s.cache.Get(b); ok {
		return blk, nil
	}
	blk, err := s.readBlock(b)
	if err != nil {
		return nil, err
	}
	s.cache.Add(b, blk, blk.Bytes())
	return blk, nil
}

// readBlock reads and decodes block b. Caller holds s.mu.
func (s *Store) readBlock(b int) (*data.Block, error) {
	size := s.offsets[b+1] - s.offsets[b]
	bufp := s.scratch.Get().(*[]byte)
	defer s.scratch.Put(bufp)
	if int64(cap(*bufp)) < size {
		*bufp = make([]byte, size)
	}
	buf := (*bufp)[:size]
	if _, err := s.r.ReadAt(buf, s.offsets[b]); err != nil {
		return nil, fmt.Errorf("segment: reading block %d: %w", b, err)
	}
	count := s.counts[b]
	blk := &data.Block{Base: s.starts[b]}
	pos := 0
	readCol := func() (byte, []byte, error) {
		if pos+5 > len(buf) {
			return 0, nil, fmt.Errorf("segment: truncated column header in block %d", b)
		}
		enc := buf[pos]
		n := int(binary.LittleEndian.Uint32(buf[pos+1:]))
		pos += 5
		if pos+n > len(buf) {
			return 0, nil, fmt.Errorf("segment: truncated column payload in block %d", b)
		}
		payload := buf[pos : pos+n]
		pos += n
		return enc, payload, nil
	}
	floatCol := func() ([]float64, error) {
		enc, payload, err := readCol()
		if err != nil {
			return nil, err
		}
		if enc != encRawF64 {
			return nil, fmt.Errorf("segment: block %d: unknown float encoding %d", b, enc)
		}
		return decodeF64(payload, count)
	}
	var err error
	if blk.X, err = floatCol(); err != nil {
		return nil, err
	}
	if blk.Y, err = floatCol(); err != nil {
		return nil, err
	}
	if s.hasTime {
		enc, payload, err := readCol()
		if err != nil {
			return nil, err
		}
		if enc != encDeltaT {
			return nil, fmt.Errorf("segment: block %d: unknown time encoding %d", b, enc)
		}
		if blk.T, err = decodeTime(payload, count); err != nil {
			return nil, err
		}
	}
	if len(s.attrs) > 0 {
		blk.Attr = make([][]float64, len(s.attrs))
		for a := range blk.Attr {
			if blk.Attr[a], err = floatCol(); err != nil {
				return nil, err
			}
		}
	}
	return blk, nil
}
