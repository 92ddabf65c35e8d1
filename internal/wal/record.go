package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// On-disk record codec. Every mutation of a durable store is one framed
// record, reusing the wire protocol's primitives (uvarint integers,
// zigzag varints, length-prefixed strings) so the two formats share one
// set of parsing idioms and hostile-input clamps. The full byte-level
// specification lives in docs/DURABILITY.md; this file is its
// implementation.
//
// Framing (both WAL and segment files, after the 9-byte file header):
//
//	length  uvarint   byte count of what follows (crc + body), <= MaxRecord
//	crc     4 bytes   little-endian CRC32-C over body
//	body    length-4 bytes, starting with a 1-byte op
//
// Like wire tags, ops are on-disk protocol: never renumber one, only
// append.

// Record ops.
const (
	// OpPut admits or upgrades one descriptor in a bucket (the durable
	// form of store.Put — replay applies first-wins/higher-version-
	// replaces semantics, so re-applying a prefix is idempotent).
	OpPut byte = 1
	// OpEvict removes one descriptor by key (bounded-store eviction).
	OpEvict byte = 2
	// OpDropArc removes every bucket on the ring arc (From, To]
	// (ownership handoff when a predecessor joins or this peer leaves).
	OpDropArc byte = 3
	// opSeal terminates a segment file, carrying the record count; a
	// segment without a valid seal is a partial compaction and ignored.
	// Seal records inside a WAL file are skipped (not an error), so the
	// record stream stays forward-compatible.
	opSeal byte = 4
)

// MaxRecord bounds one framed record. A length prefix above it is
// corruption, rejected before any allocation — the same clamp discipline
// as transport.MaxFrame, scaled to a single descriptor mutation.
const MaxRecord = 1 << 20

// Record is one decoded durable mutation.
type Record struct {
	Op byte
	// ID is the bucket identifier (OpPut, OpEvict).
	ID store.ID
	// Part is the descriptor, version and origin stamps included (OpPut).
	Part store.Partition
	// Key is the descriptor identity being removed (OpEvict).
	Key string
	// From, To delimit the dropped ring arc (OpDropArc).
	From, To store.ID
	// Count is the sealed record total (opSeal, segment files only).
	Count uint64
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that failed framing, checksum, or body
// validation. A corrupt record ends replay at the last good offset; it
// is data loss only if the record was ever acknowledged, which the
// commit protocol prevents (records are acknowledged only after fsync).
var ErrCorrupt = fmt.Errorf("wal: corrupt record")

// AppendRecord appends r's body encoding (op byte + op-specific fields,
// no framing) to b.
func AppendRecord(b []byte, r *Record) []byte {
	b = append(b, r.Op)
	switch r.Op {
	case OpPut:
		b = transport.AppendUvarint(b, uint64(r.ID))
		b = transport.AppendString(b, r.Part.Relation)
		b = transport.AppendString(b, r.Part.Attribute)
		b = transport.AppendVarint(b, r.Part.Range.Lo)
		b = transport.AppendVarint(b, r.Part.Range.Hi)
		b = transport.AppendString(b, r.Part.Holder)
		b = transport.AppendUvarint(b, r.Part.Version)
		b = transport.AppendString(b, r.Part.Origin)
	case OpEvict:
		b = transport.AppendUvarint(b, uint64(r.ID))
		b = transport.AppendString(b, r.Key)
	case OpDropArc:
		b = transport.AppendUvarint(b, uint64(r.From))
		b = transport.AppendUvarint(b, uint64(r.To))
	case opSeal:
		b = transport.AppendUvarint(b, r.Count)
	}
	return b
}

// ParseRecord decodes one record body from c, consuming exactly the
// bytes AppendRecord produced. Unknown ops and trailing garbage are
// ErrCorrupt: a record body must parse completely.
func ParseRecord(c *transport.Cursor) (Record, error) {
	var r Record
	if c.Len() < 1 {
		return r, fmt.Errorf("%w: empty body", ErrCorrupt)
	}
	r.Op = byte(c.Uvarint())
	switch r.Op {
	case OpPut:
		r.ID = store.ID(c.Uvarint())
		r.Part.Relation = c.String()
		r.Part.Attribute = c.String()
		r.Part.Range.Lo = c.Varint()
		r.Part.Range.Hi = c.Varint()
		r.Part.Holder = c.String()
		r.Part.Version = c.Uvarint()
		r.Part.Origin = c.String()
	case OpEvict:
		r.ID = store.ID(c.Uvarint())
		r.Key = c.String()
	case OpDropArc:
		r.From = store.ID(c.Uvarint())
		r.To = store.ID(c.Uvarint())
	case opSeal:
		r.Count = c.Uvarint()
	default:
		return r, fmt.Errorf("%w: unknown op %d", ErrCorrupt, r.Op)
	}
	if c.Err != nil {
		return r, fmt.Errorf("%w: truncated body", ErrCorrupt)
	}
	if c.Len() != 0 {
		return r, fmt.Errorf("%w: %d trailing byte(s) after op %d", ErrCorrupt, c.Len(), r.Op)
	}
	return r, nil
}

// AppendFramed appends the full framed form of r — length prefix,
// checksum, body — to b: the same encoding WAL files hold and the
// shipping protocol streams, so a receiver can WalkBuffer it.
func AppendFramed(b []byte, r *Record) []byte {
	body := AppendRecord(nil, r)
	b = transport.AppendUvarint(b, uint64(len(body)+4))
	var crc [4]byte
	sum := crc32.Checksum(body, crcTable)
	crc[0], crc[1], crc[2], crc[3] = byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
	b = append(b, crc[:]...)
	return append(b, body...)
}

// WalkBuffer parses framed records from data, calling fn for each fully
// valid one, and returns the offset just past the last valid record. A
// clean end returns a nil error; a torn or corrupt tail returns the
// describing error with the offset still pointing at the last good
// record, so callers can truncate there. fn returning an error aborts
// the walk (and is returned verbatim). Recovery, compaction, walctl, the
// pusher and the push receiver all parse with it.
func WalkBuffer(data []byte, fn func(Record) error) (int, error) {
	c := transport.NewCursor(nil)
	off := 0
	for off < len(data) {
		body, size, err := checkFrame(data[off:])
		if err != nil {
			return off, err
		}
		if body == nil {
			return off, fmt.Errorf("%w: torn record (%d byte(s) left)", ErrCorrupt, len(data)-off)
		}
		c.Reset(body)
		rec, err := ParseRecord(c)
		if err != nil {
			return off, err
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += size
	}
	return off, nil
}

// checkFrame is the one frame check, for in-memory walks (WalkBuffer)
// and windowed segment walks (walkFrames) alike: it bounds the length
// prefix at the start of b and verifies the checksum of the body that
// follows. It returns the body and the frame's size in bytes. When b
// ends before the frame does, body is nil and size is the frame's size
// (0 when the length prefix itself is cut).
func checkFrame(b []byte) (body []byte, size int, err error) {
	length, ln := binary.Uvarint(b)
	if ln == 0 {
		return nil, 0, nil
	}
	if ln < 0 || length < 5 || length > MaxRecord {
		return nil, 0, fmt.Errorf("%w: record length %d", ErrCorrupt, length)
	}
	size = ln + int(length)
	if len(b) < size {
		return nil, size, nil
	}
	frame := b[ln:size]
	if crc32.Checksum(frame[4:], crcTable) != binary.LittleEndian.Uint32(frame) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return frame[4:], size, nil
}
