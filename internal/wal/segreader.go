package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"p2prange/internal/metrics"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

var (
	metSegReads     = metrics.Default.Counter("wal.seg_reads")
	metSegReadBytes = metrics.Default.Counter("wal.seg_read_bytes")
	metSegBloomSkip = metrics.Default.Counter("wal.seg_bloom_skips")
	metSegReadErrs  = metrics.Default.Counter("wal.seg_read_errors")
	metSegRebuilds  = metrics.Default.Counter("wal.seg_index_rebuilds")
)

// SegmentReader is the disk tier behind a bounded store.
var _ store.SegmentSource = (*SegmentReader)(nil)

// SegmentReader serves point reads and arc scans from one sealed segment
// file without loading it into memory: the sparse footer index finds the
// neighborhood, a short bounded walk finds the record, and the bloom
// filters turn most misses into zero-I/O answers. It implements
// store.SegmentSource, making it the disk tier behind a bounded store.
//
// Readers are safe for concurrent use: all file access goes through
// ReadAt on an immutable file, and scratch buffers come from a pool.
type SegmentReader struct {
	f        *os.File
	path     string
	size     int64
	recStart int64 // first byte after the file header
	idx      *segIndex
	rebuilt  bool // footer was damaged; idx came from a full scan
}

// segChunk is the read granularity for walks; records larger than one
// chunk grow the scratch buffer on demand.
const segChunk = 64 << 10

// segWalker is pooled per-walk scratch: the read buffer and a reusable
// cursor (with its string interner) so steady-state probes allocate
// nothing.
type segWalker struct {
	buf []byte
	c   *transport.Cursor
}

var walkerPool = sync.Pool{New: func() any {
	return &segWalker{buf: make([]byte, segChunk), c: transport.NewCursor(nil)}
}}

// OpenSegmentReader opens sealed segment seq in dir for read-through.
// A valid footer makes this O(footer bytes): readFooter checks the seal
// record the footer points at, and damage inside the record stream
// surfaces later, as a counted read error (wal.seg_read_errors) on the
// walk that meets it (boot walks the records once first: checkRecords).
// A damaged or missing footer falls back to a full streaming decode that
// rebuilds the index and bloom filters in memory (counted in
// wal.seg_index_rebuilds) and rejects an unsealed or mid-stream-corrupt
// segment entirely, exactly as loadSegment would.
func OpenSegmentReader(dir string, seq uint64) (*SegmentReader, error) {
	path := segPath(dir, seq)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat segment: %w", err)
	}
	r := &SegmentReader{f: f, path: path, size: fi.Size()}

	hdr := make([]byte, len(magicSEG)+binary.MaxVarintLen64)
	if r.size < int64(len(hdr)) {
		hdr = hdr[:r.size]
	}
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: segment header: %v", ErrCorrupt, err)
	}
	rest, err := parseHeader(hdr, magicSEG, seq)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.recStart = int64(len(hdr) - len(rest))

	if x, err := readFooter(f, r.recStart, r.size); err == nil {
		r.idx = x
	} else {
		metSegRebuilds.Inc()
		x, rerr := r.rebuildIndex()
		if rerr != nil {
			f.Close()
			return nil, rerr
		}
		r.idx = x
		r.rebuilt = true
	}
	return r, nil
}

// rebuildIndex decodes every record from the top (decodeSegment) and
// rebuilds the sparse index and bloom filters the footer would have held.
// Bytes after the seal (the damaged footer) are never examined. This is
// the recovery guarantee for the read path: a torn footer costs one
// full-segment scan at open, never a wrong answer.
func (r *SegmentReader) rebuildIndex() (*segIndex, error) {
	var ib indexBuilder
	dataEnd, err := decodeSegment(segReads{r.f}, r.recStart, r.size, func(off int64, rec Record) {
		ib.add(off, rec.ID, rec.Part.Key())
	})
	if err != nil {
		return nil, err
	}
	return ib.finish(dataEnd), nil
}

// checkRecords walks the record stream once (decodeSegment) and checks
// that it ends at the seal the index points at. Boot calls it for a
// segment opened through its footer, which checks only that seal; the
// walk reads the file directly, so it is not read-path traffic and does
// not count in wal.seg_read_bytes.
func (r *SegmentReader) checkRecords() error {
	sealAt, err := decodeSegment(r.f, r.recStart, r.size, func(int64, Record) {})
	if err == nil && sealAt != r.idx.dataEnd {
		err = fmt.Errorf("%w: records end at %d, footer's seal at %d", ErrCorrupt, sealAt, r.idx.dataEnd)
	}
	return err
}

// segReads is a segment file as the read path reads it: what walks read
// through it counts in wal.seg_read_bytes (the footer reads at open do
// not).
type segReads struct{ f *os.File }

func (s segReads) ReadAt(p []byte, off int64) (int, error) {
	n, err := s.f.ReadAt(p, off)
	metSegReadBytes.Add(uint64(n))
	return n, err
}

// walkFrames walks the framed records in [from, end) of ra through a
// pooled window, checking each frame (checkFrame), and calls fn with each
// record's absolute offset, its body and the walker's reusable cursor.
// fn returning stop=true ends the walk cleanly. The body (and anything
// the cursor views into it) is only valid during the call.
func walkFrames(ra io.ReaderAt, from, end int64, fn func(off int64, body []byte, c *transport.Cursor) (bool, error)) error {
	w := walkerPool.Get().(*segWalker)
	defer walkerPool.Put(w)

	base, n, i := from, 0, 0 // window [base, base+n), parse offset i
	fill := func(at int64, need int) error {
		if need > len(w.buf) {
			w.buf = make([]byte, need+segChunk)
		}
		want := int64(len(w.buf))
		if at+want > end {
			want = end - at
		}
		m, err := ra.ReadAt(w.buf[:want], at)
		if int64(m) < want {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("wal: segment read at %d: %w", at, err)
		}
		base, n, i = at, int(want), 0
		return nil
	}

	for {
		abs := base + int64(i)
		if abs >= end {
			return nil
		}
		body, size, err := checkFrame(w.buf[i:n])
		if err != nil {
			return err
		}
		if body == nil { // the frame runs past the window
			if base+int64(n) >= end || abs+int64(size) > end {
				return fmt.Errorf("%w: torn record", ErrCorrupt)
			}
			if err := fill(abs, size); err != nil {
				return err
			}
			continue
		}
		stop, err := fn(abs, body, w.c)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
		i += size
	}
}

// Len returns the number of put records in the segment.
func (r *SegmentReader) Len() int { return r.idx.count }

// Rebuilt reports whether the footer was damaged and the index had to be
// rebuilt by a full scan.
func (r *SegmentReader) Rebuilt() bool { return r.rebuilt }

// MayContain reports whether bucket id may have records here. False is
// definitive (and costs no I/O); true may be a bloom false positive.
func (r *SegmentReader) MayContain(id store.ID) bool {
	if !r.idx.ids.has(hashID(uint32(id))) {
		metSegBloomSkip.Inc()
		return false
	}
	return true
}

// MayContainKey is MayContain for one descriptor identity.
func (r *SegmentReader) MayContainKey(id store.ID, key string) bool {
	if !r.idx.keys.has(hashIDKey(uint32(id), key)) {
		metSegBloomSkip.Inc()
		return false
	}
	return true
}

// Get returns the descriptor with the given identity key in bucket id,
// if the segment holds one. The common miss (bloom negative) does no
// I/O; a present key costs one index probe plus a short bounded walk.
func (r *SegmentReader) Get(id store.ID, key string) (store.Partition, bool, error) {
	var p store.Partition
	ok, err := r.find(id, key, &p)
	return p, ok, err
}

// find is Get with an optional materialization target: with out == nil
// it only locates the record, allocating nothing (the benchmarked
// point-read hot path).
func (r *SegmentReader) find(id store.ID, key string, out *store.Partition) (bool, error) {
	if !r.idx.keys.has(hashIDKey(uint32(id), key)) {
		metSegBloomSkip.Inc()
		return false, nil
	}
	metSegReads.Inc()
	found := false
	err := walkFrames(segReads{r.f}, r.idx.seek(int64(id)-1, r.recStart), r.idx.dataEnd, func(_ int64, body []byte, c *transport.Cursor) (bool, error) {
		c.Reset(body)
		if op := c.Uvarint(); op != uint64(OpPut) {
			return false, fmt.Errorf("%w: op %d in segment", ErrCorrupt, op)
		}
		recID := store.ID(c.Uvarint())
		if c.Err != nil {
			return false, fmt.Errorf("%w: truncated body", ErrCorrupt)
		}
		if recID < id {
			return false, nil
		}
		if recID > id {
			return true, nil // sorted: past the bucket, key absent
		}
		rel, attr := c.Bytes(), c.Bytes()
		lo, hi := c.Varint(), c.Varint()
		if c.Err != nil {
			return false, fmt.Errorf("%w: truncated body", ErrCorrupt)
		}
		if !keyMatches(key, rel, attr, lo, hi) {
			return false, nil
		}
		found = true
		if out != nil {
			c.Reset(body)
			rec, err := ParseRecord(c)
			if err != nil {
				return false, err
			}
			*out = rec.Part
		}
		return true, nil
	})
	if err != nil {
		metSegReadErrs.Inc()
		return false, err
	}
	return found, nil
}

// keyMatches reports whether the descriptor fields (as raw views into
// the record body) spell the identity key "rel.attr[lo,hi]" — comparing
// in place, without building the key string.
func keyMatches(key string, rel, attr []byte, lo, hi int64) bool {
	n := len(rel)
	if len(key) <= n || key[n] != '.' || key[:n] != string(rel) {
		return false
	}
	rest := key[n+1:]
	m := len(attr)
	if len(rest) <= m || rest[:m] != string(attr) {
		return false
	}
	var scratch [48]byte
	s := append(scratch[:0], '[')
	s = strconv.AppendInt(s, lo, 10)
	s = append(s, ',')
	s = strconv.AppendInt(s, hi, 10)
	s = append(s, ']')
	return rest[m:] == string(s)
}

// Bucket calls fn for every descriptor in bucket id, in key order.
func (r *SegmentReader) Bucket(id store.ID, fn func(store.Partition) error) error {
	if !r.idx.ids.has(hashID(uint32(id))) {
		metSegBloomSkip.Inc()
		return nil
	}
	return r.scan(int64(id)-1, id, func(_ store.ID, p store.Partition) error { return fn(p) })
}

// Scan calls fn for every descriptor in the segment, in (id, key) order.
func (r *SegmentReader) Scan(fn func(store.ID, store.Partition) error) error {
	return r.scan(-1, ^store.ID(0), fn)
}

// ScanArc calls fn for every descriptor whose bucket lies on the ring
// arc (from, to] (from == to means the whole circle), using the index to
// skip to the arc's start. A wrapping arc is two bounded walks.
func (r *SegmentReader) ScanArc(from, to store.ID, fn func(store.ID, store.Partition) error) error {
	switch {
	case from == to:
		return r.Scan(fn)
	case from < to:
		return r.scan(int64(from), to, fn)
	}
	// Wrapping arc: (from, maxID] then [0, to].
	if err := r.scan(int64(from), ^store.ID(0), fn); err != nil {
		return err
	}
	return r.scan(-1, to, fn)
}

// scan is the one id-range walk, behind Bucket, Scan and ScanArc: one
// counted read (wal.seg_reads) from the index entry at or before after,
// calling fn for every descriptor with after < id <= last, in (id, key)
// order. after -1 starts at the first record.
func (r *SegmentReader) scan(after int64, last store.ID, fn func(store.ID, store.Partition) error) error {
	metSegReads.Inc()
	err := walkFrames(segReads{r.f}, r.idx.seek(after, r.recStart), r.idx.dataEnd, func(_ int64, body []byte, c *transport.Cursor) (bool, error) {
		c.Reset(body)
		rec, err := ParseRecord(c)
		switch {
		case err != nil:
			return false, err
		case int64(rec.ID) <= after:
			return false, nil
		case rec.ID > last:
			return true, nil
		}
		return false, fn(rec.ID, rec.Part)
	})
	if err != nil {
		metSegReadErrs.Inc()
	}
	return err
}

// Close releases the underlying file. Reads after Close fail.
func (r *SegmentReader) Close() error { return r.f.Close() }
