package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// The segment footer: a sparse index plus bloom filters appended AFTER
// the seal record, so point reads and arc scans can seek instead of
// walking the whole file. The footer is an accelerator, never an
// authority — the seal record remains the segment's commit point, and a
// footer that fails any check below is discarded and rebuilt from a full
// record scan (segreader.go). Damaging the footer can therefore slow a
// boot down but can never lose data or change an answer.
//
// Layout (byte-level spec in docs/DURABILITY.md):
//
//	footer   := ver count dataEnd index keyBloom idBloom crc
//	ver      byte      footer format version (1)
//	count    uvarint   put records in the segment (must match the seal)
//	dataEnd  uvarint   absolute offset of the seal record's length prefix
//	index    uvarint M, then M entries of (idDelta, offDelta) — the
//	          first entry absolute, the rest deltas from the previous
//	          (record offsets are strictly ascending; ids non-decreasing)
//	keyBloom  m uvarint, k uvarint, nbytes uvarint, nbytes filter bytes
//	idBloom   same layout
//	crc      4 bytes   little-endian CRC32-C over every prior footer byte
//
// and a fixed-size trailer at EOF locating it:
//
//	footerOff  8 bytes  little-endian absolute offset of the footer
//	footerLen  4 bytes  little-endian footer length (crc included)
//	magic      4 bytes  "pSIX"
const (
	segFooterVersion = 1
	segTrailerLen    = 16
	// segIndexEvery is the sparse-index stride: one (id, offset) entry
	// per this many put records (plus always the first record).
	segIndexEvery = 64
)

var magicIdx = []byte("pSIX")

// indexEntry locates the framed put record at off (absolute file
// offset of its length prefix) holding bucket id.
type indexEntry struct {
	id  store.ID
	off int64
}

// segIndex is a parsed (or rebuilt) footer: everything the read path
// needs to serve lookups without scanning the whole segment.
type segIndex struct {
	count   int   // put records in the segment
	dataEnd int64 // absolute offset of the seal record
	entries []indexEntry
	keys    *bloom // over (id, key) identities
	ids     *bloom // over bucket ids
}

// seek returns where a walk for the ids above after starts: the offset
// of the last index entry whose id is at most after, or start when there
// is none. A bucket's records can straddle an index entry, so a walk for
// bucket id starts at seek(id-1), never at an entry holding id itself.
func (x *segIndex) seek(after, start int64) int64 {
	lo, hi := 0, len(x.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if int64(x.entries[mid].id) <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return start
	}
	return x.entries[lo-1].off
}

// indexBuilder is the one index builder: fed every put record of a
// segment in file order, it makes the sparse index (one entry per
// segIndexEvery records, the first record always included) and both
// blooms. Compaction writes the footer from it, and SegmentReader
// rebuilds a damaged footer with it.
type indexBuilder struct {
	x      segIndex
	hashes []uint64 // per record: its (id, key) hash, then its id hash
}

// add takes the put record of bucket id with identity key, framed at off.
func (b *indexBuilder) add(off int64, id store.ID, key string) {
	if b.x.count%segIndexEvery == 0 {
		b.x.entries = append(b.x.entries, indexEntry{id: id, off: off})
	}
	b.hashes = append(b.hashes, hashIDKey(uint32(id), key), hashID(uint32(id)))
	b.x.count++
}

// finish returns the index of the records added, for a segment whose
// seal record starts at dataEnd.
func (b *indexBuilder) finish(dataEnd int64) *segIndex {
	x := &b.x
	x.dataEnd = dataEnd
	x.keys, x.ids = newBloom(x.count), newBloom(x.count)
	for i := 0; i < len(b.hashes); i += 2 {
		x.keys.add(b.hashes[i])
		x.ids.add(b.hashes[i+1])
	}
	return x
}

// appendFooter serializes x (footer body + crc + trailer) to b. The
// caller appends this directly after the seal record; footerOff is
// len(b) at call time.
func appendFooter(b []byte, x *segIndex) []byte {
	footerOff := uint64(len(b))
	b = append(b, segFooterVersion)
	b = transport.AppendUvarint(b, uint64(x.count))
	b = transport.AppendUvarint(b, uint64(x.dataEnd))
	b = transport.AppendUvarint(b, uint64(len(x.entries)))
	var prev indexEntry
	for i, e := range x.entries {
		if i == 0 {
			b = transport.AppendUvarint(b, uint64(e.id))
			b = transport.AppendUvarint(b, uint64(e.off))
		} else {
			b = transport.AppendUvarint(b, uint64(e.id-prev.id))
			b = transport.AppendUvarint(b, uint64(e.off-prev.off))
		}
		prev = e
	}
	b = appendBloom(b, x.keys)
	b = appendBloom(b, x.ids)
	sum := crc32.Checksum(b[footerOff:], crcTable)
	b = append(b, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))

	var tr [segTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], footerOff)
	binary.LittleEndian.PutUint32(tr[8:12], uint32(uint64(len(b))-footerOff))
	copy(tr[12:16], magicIdx)
	return append(b, tr[:]...)
}

// readFooter is the one footer check, for SegmentReader's open and for
// walctl verify alike: it finds the footer through the trailer at the end
// of the size-byte segment ra whose records start at recStart, checks the
// trailer's magic and bounds and the footer's checksum and contents
// (parseFooter), and checks that the seal record it points at fills the
// gap up to the footer and carries its count. Any failure is ErrCorrupt:
// the reader then rebuilds the index from the records instead.
func readFooter(ra io.ReaderAt, recStart, size int64) (*segIndex, error) {
	if size < recStart+segTrailerLen {
		return nil, fmt.Errorf("%w: no room for trailer", ErrCorrupt)
	}
	var tr [segTrailerLen]byte
	if _, err := ra.ReadAt(tr[:], size-segTrailerLen); err != nil {
		return nil, fmt.Errorf("%w: trailer read: %v", ErrCorrupt, err)
	}
	if string(tr[12:16]) != string(magicIdx) {
		return nil, fmt.Errorf("%w: trailer magic", ErrCorrupt)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	footerLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	if footerOff <= recStart || footerLen < 5 || footerOff+footerLen+segTrailerLen != size {
		return nil, fmt.Errorf("%w: trailer bounds (footer at %d+%d, records from %d, file %d)",
			ErrCorrupt, footerOff, footerLen, recStart, size)
	}
	data := make([]byte, footerLen)
	if _, err := ra.ReadAt(data, footerOff); err != nil {
		return nil, fmt.Errorf("%w: footer read: %v", ErrCorrupt, err)
	}
	x, err := parseFooter(data, recStart, footerOff)
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
	if _, err := ra.ReadAt(seal, x.dataEnd); err != nil {
		return nil, fmt.Errorf("%w: seal read: %v", ErrCorrupt, err)
	}
	if _, err := WalkBuffer(seal, func(rec Record) error {
		if rec.Op != opSeal || rec.Count != uint64(x.count) {
			return fmt.Errorf("%w: footer/seal mismatch", ErrCorrupt)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return x, nil
}

func appendBloom(b []byte, f *bloom) []byte {
	b = transport.AppendUvarint(b, f.m)
	b = transport.AppendUvarint(b, uint64(f.k))
	b = transport.AppendUvarint(b, uint64(len(f.bits)))
	return append(b, f.bits...)
}

// parseFooter decodes and validates a footer region read from
// [footerOff, footerOff+len(data)) of a segment file whose records start
// at recStart. Any failure returns ErrCorrupt — the caller falls back to
// a full-scan rebuild.
func parseFooter(data []byte, recStart, footerOff int64) (*segIndex, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("%w: footer too short", ErrCorrupt)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	sum := uint32(crcBytes[0]) | uint32(crcBytes[1])<<8 | uint32(crcBytes[2])<<16 | uint32(crcBytes[3])<<24
	if crc32.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	if body[0] != segFooterVersion {
		return nil, fmt.Errorf("%w: footer version %d", ErrCorrupt, body[0])
	}
	c := transport.NewCursor(body[1:])
	x := &segIndex{}
	x.count = int(c.Uvarint())
	x.dataEnd = int64(c.Uvarint())
	n := c.Uvarint()
	// dataEnd == recStart is legal: an empty segment (a checkpoint of an
	// empty store, e.g. right after a graceful-leave handoff) seals with
	// zero put records, so the seal record is the first byte of the
	// record region.
	if c.Err != nil || x.count < 0 || x.dataEnd < recStart || x.dataEnd > footerOff {
		return nil, fmt.Errorf("%w: footer header", ErrCorrupt)
	}
	if n > uint64(x.count) || n > uint64(c.Len()) {
		return nil, fmt.Errorf("%w: footer index size %d", ErrCorrupt, n)
	}
	x.entries = make([]indexEntry, 0, n)
	var prev indexEntry
	for i := uint64(0); i < n; i++ {
		id, off := c.Uvarint(), c.Uvarint()
		e := prev
		if i == 0 {
			e = indexEntry{id: store.ID(id), off: int64(off)}
		} else {
			e.id += store.ID(id)
			e.off += int64(off)
			if off == 0 {
				return nil, fmt.Errorf("%w: footer index offsets not ascending", ErrCorrupt)
			}
		}
		if c.Err != nil || e.off < recStart || e.off >= x.dataEnd {
			return nil, fmt.Errorf("%w: footer index entry %d", ErrCorrupt, i)
		}
		x.entries = append(x.entries, e)
		prev = e
	}
	var err error
	if x.keys, err = parseBloom(c); err != nil {
		return nil, err
	}
	if x.ids, err = parseBloom(c); err != nil {
		return nil, err
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing footer byte(s)", ErrCorrupt, c.Len())
	}
	return x, nil
}

func parseBloom(c *transport.Cursor) (*bloom, error) {
	m, k := c.Uvarint(), c.Uvarint()
	bits := c.Bytes()
	if c.Err != nil || m == 0 || m > bloomMaxBytes*8 || k == 0 || k > 32 || uint64(len(bits)) != (m+7)/8 {
		return nil, fmt.Errorf("%w: footer bloom", ErrCorrupt)
	}
	// Copy out of the read buffer: the filter outlives the parse.
	return &bloom{m: m, k: uint32(k), bits: append([]byte(nil), bits...)}, nil
}
