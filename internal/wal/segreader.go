package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// A valid footer makes this O(footer bytes); a damaged or missing footer
// falls back to a full streaming scan that rebuilds the index and bloom
// filters in memory (counted in wal.seg_index_rebuilds). Either way the
// seal record is verified — an unsealed or mid-stream-corrupt segment is
// rejected entirely, exactly as loadSegment would.
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

	if x, err := r.loadFooter(); err == nil {
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

// loadFooter locates the footer via the fixed trailer at EOF, checks its
// checksum and bounds, and cross-checks the seal record it points at.
// Any failure is ErrCorrupt: the caller rebuilds instead.
func (r *SegmentReader) loadFooter() (*segIndex, error) {
	if r.size < r.recStart+segTrailerLen {
		return nil, fmt.Errorf("%w: no room for trailer", ErrCorrupt)
	}
	var tr [segTrailerLen]byte
	if _, err := r.f.ReadAt(tr[:], r.size-segTrailerLen); err != nil {
		return nil, fmt.Errorf("%w: trailer read: %v", ErrCorrupt, err)
	}
	footerOff, footerLen, err := parseTrailer(tr[:], r.size)
	if err != nil {
		return nil, err
	}
	if footerOff <= r.recStart {
		return nil, fmt.Errorf("%w: footer at %d, records start at %d", ErrCorrupt, footerOff, r.recStart)
	}
	data := make([]byte, footerLen)
	if _, err := r.f.ReadAt(data, footerOff); err != nil {
		return nil, fmt.Errorf("%w: footer read: %v", ErrCorrupt, err)
	}
	x, err := parseFooter(data, r.recStart, footerOff)
	if err != nil {
		return nil, err
	}
	// The footer's checksum protects the footer; the seal it points at
	// ties it to the record stream. Both must agree on the count.
	sealLen := footerOff - x.dataEnd
	if sealLen < 6 || sealLen > 32 {
		return nil, fmt.Errorf("%w: seal bounds", ErrCorrupt)
	}
	seal := make([]byte, sealLen)
	if _, err := r.f.ReadAt(seal, x.dataEnd); err != nil {
		return nil, fmt.Errorf("%w: seal read: %v", ErrCorrupt, err)
	}
	sealed := false
	n, err := WalkBuffer(seal, func(rec Record) error {
		if rec.Op != opSeal || rec.Count != uint64(x.count) {
			return fmt.Errorf("%w: footer/seal mismatch", ErrCorrupt)
		}
		sealed = true
		return nil
	})
	if err != nil || !sealed || n != len(seal) {
		if err == nil {
			err = fmt.Errorf("%w: seal record", ErrCorrupt)
		}
		return nil, err
	}
	return x, nil
}

// rebuildIndex scans every record from the top, verifying frames and
// checksums, and rebuilds the sparse index and bloom filters the footer
// would have held. Bytes after the seal (the damaged footer) are never
// examined. This is the recovery guarantee for the read path: a torn
// footer costs one full-segment scan at open, never a wrong answer.
func (r *SegmentReader) rebuildIndex() (*segIndex, error) {
	x := &segIndex{}
	var keyHashes, idHashes []uint64
	sealed := false
	err := r.walk(r.recStart, r.size, func(off int64, body []byte, c *transport.Cursor) (bool, error) {
		c.Reset(body)
		rec, err := ParseRecord(c)
		if err != nil {
			return false, err
		}
		switch rec.Op {
		case opSeal:
			if rec.Count != uint64(x.count) {
				return false, fmt.Errorf("%w: seal count %d, have %d records", ErrCorrupt, rec.Count, x.count)
			}
			sealed = true
			x.dataEnd = off
			return true, nil
		case OpPut:
			if x.count%segIndexEvery == 0 {
				x.entries = append(x.entries, indexEntry{id: rec.ID, off: off})
			}
			keyHashes = append(keyHashes, hashIDKey(uint32(rec.ID), rec.Part.Key()))
			idHashes = append(idHashes, hashID(uint32(rec.ID)))
			x.count++
			return false, nil
		default:
			return false, fmt.Errorf("%w: op %d in segment", ErrCorrupt, rec.Op)
		}
	})
	if err != nil {
		return nil, err
	}
	if !sealed {
		return nil, fmt.Errorf("%w: unsealed segment", ErrCorrupt)
	}
	x.keys = newBloom(x.count)
	for _, h := range keyHashes {
		x.keys.add(h)
	}
	x.ids = newBloom(x.count)
	for _, h := range idHashes {
		x.ids.add(h)
	}
	return x, nil
}

// walk parses framed records in [from, end), calling fn with each
// record's absolute offset, checksum-verified body, and the walker's
// reusable cursor. fn returning stop=true ends the walk cleanly. The
// body (and anything the cursor views into it) is only valid during the
// call.
func (r *SegmentReader) walk(from, end int64, fn func(off int64, body []byte, c *transport.Cursor) (bool, error)) error {
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
		m, err := r.f.ReadAt(w.buf[:want], at)
		metSegReadBytes.Add(uint64(m))
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
		length, ln := binary.Uvarint(w.buf[i:n])
		if ln == 0 { // length prefix incomplete in window
			if base+int64(n) >= end {
				return fmt.Errorf("%w: torn length prefix", ErrCorrupt)
			}
			if err := fill(abs, 2*binary.MaxVarintLen64); err != nil {
				return err
			}
			continue
		}
		if ln < 0 || length < 5 || length > MaxRecord {
			return fmt.Errorf("%w: record length %d", ErrCorrupt, length)
		}
		total := ln + int(length)
		if abs+int64(total) > end {
			return fmt.Errorf("%w: torn record", ErrCorrupt)
		}
		if i+total > n {
			if err := fill(abs, total); err != nil {
				return err
			}
			continue
		}
		frame := w.buf[i+ln : i+total]
		sum := uint32(frame[0]) | uint32(frame[1])<<8 | uint32(frame[2])<<16 | uint32(frame[3])<<24
		body := frame[4:]
		if crc32.Checksum(body, crcTable) != sum {
			return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		stop, err := fn(abs, body, w.c)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
		i += total
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
	err := r.walk(r.idx.seek(id, r.recStart), r.idx.dataEnd, func(off int64, body []byte, c *transport.Cursor) (bool, error) {
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
	metSegReads.Inc()
	err := r.walk(r.idx.seek(id, r.recStart), r.idx.dataEnd, func(off int64, body []byte, c *transport.Cursor) (bool, error) {
		c.Reset(body)
		rec, err := ParseRecord(c)
		if err != nil {
			return false, err
		}
		if rec.ID < id {
			return false, nil
		}
		if rec.ID > id {
			return true, nil
		}
		return false, fn(rec.Part)
	})
	if err != nil {
		metSegReadErrs.Inc()
	}
	return err
}

// Scan calls fn for every descriptor in the segment, in (id, key) order.
func (r *SegmentReader) Scan(fn func(store.ID, store.Partition) error) error {
	metSegReads.Inc()
	err := r.walk(r.recStart, r.idx.dataEnd, func(off int64, body []byte, c *transport.Cursor) (bool, error) {
		c.Reset(body)
		rec, err := ParseRecord(c)
		if err != nil {
			return false, err
		}
		return false, fn(rec.ID, rec.Part)
	})
	if err != nil {
		metSegReadErrs.Inc()
	}
	return err
}

// ScanArc calls fn for every descriptor whose bucket lies on the ring
// arc (from, to] (from == to means the whole circle), using the index to
// skip to the arc's start. A wrapping arc is two bounded walks.
func (r *SegmentReader) ScanArc(from, to store.ID, fn func(store.ID, store.Partition) error) error {
	if from == to {
		return r.Scan(fn)
	}
	if from < to {
		return r.scanIDRange(from, to, fn)
	}
	// Wrapping arc: (from, maxID] then [0, to].
	if err := r.scanIDRange(from, ^store.ID(0), fn); err != nil {
		return err
	}
	return r.scanIDRange0(to, fn)
}

// scanIDRange walks ids in (fromExcl, toIncl], fromExcl < toIncl assumed
// (or toIncl == maxID).
func (r *SegmentReader) scanIDRange(fromExcl, toIncl store.ID, fn func(store.ID, store.Partition) error) error {
	metSegReads.Inc()
	err := r.walk(r.idx.seek(fromExcl, r.recStart), r.idx.dataEnd, func(off int64, body []byte, c *transport.Cursor) (bool, error) {
		c.Reset(body)
		rec, err := ParseRecord(c)
		if err != nil {
			return false, err
		}
		if rec.ID <= fromExcl {
			return false, nil
		}
		if rec.ID > toIncl {
			return true, nil
		}
		return false, fn(rec.ID, rec.Part)
	})
	if err != nil {
		metSegReadErrs.Inc()
	}
	return err
}

// scanIDRange0 walks ids in [0, toIncl].
func (r *SegmentReader) scanIDRange0(toIncl store.ID, fn func(store.ID, store.Partition) error) error {
	metSegReads.Inc()
	err := r.walk(r.recStart, r.idx.dataEnd, func(off int64, body []byte, c *transport.Cursor) (bool, error) {
		c.Reset(body)
		rec, err := ParseRecord(c)
		if err != nil {
			return false, err
		}
		if rec.ID > toIncl {
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
