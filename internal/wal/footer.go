package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

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

// seek returns the largest indexed offset whose id is <= want — the
// position a walk for bucket `want` starts from. Returns start when the
// index is empty or every entry is above want.
func (x *segIndex) seek(want store.ID, start int64) int64 {
	lo, hi := 0, len(x.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if x.entries[mid].id <= want {
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

// parseTrailer decodes the trailer tr read at the end of a size-byte
// segment: the footer's offset and length, checked against the magic
// and against ending exactly where the trailer starts.
func parseTrailer(tr []byte, size int64) (footerOff, footerLen int64, err error) {
	if string(tr[12:16]) != string(magicIdx) {
		return 0, 0, fmt.Errorf("%w: trailer magic", ErrCorrupt)
	}
	footerOff = int64(binary.LittleEndian.Uint64(tr[0:8]))
	footerLen = int64(binary.LittleEndian.Uint32(tr[8:12]))
	if footerOff < 0 || footerLen < 5 || footerOff+footerLen+segTrailerLen != size {
		return 0, 0, fmt.Errorf("%w: trailer bounds (footer at %d+%d, file %d)", ErrCorrupt, footerOff, footerLen, size)
	}
	return footerOff, footerLen, nil
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
