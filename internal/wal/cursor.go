package wal

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"p2prange/internal/metrics"
	"p2prange/internal/transport"
)

// Log shipping support: the WAL doubles as a replication stream. A
// reader (the replica pusher, one per successor) holds a Cursor — (WAL
// file sequence, byte offset) — naming a record boundary in the log,
// and ReadEntries hands back the framed record bytes from there up to
// the durable watermark, verbatim, every record CRC-checked.
//
// Compaction is the enemy of a lagging cursor: folding deletes the WAL
// files the cursor still needs. Pin reserves them — compaction retains
// folded files at or above the lowest pinned sequence, up to the
// Options.ShipRetain byte budget. Every pin is named push:<addr>. A pin
// evicted for budget is reported through Options.OnRetainDrop, and its
// cursor (like any cursor pre-dating retention) then gets
// ErrCursorGone: the pusher counts ship.push_resets and that
// successor's next sync falls back to a digest round.

var (
	metRetainedBytes = metrics.Default.Gauge("wal.retained_bytes")
	metRetainDrops   = metrics.Default.Counter("wal.retain_drops")
	metShipReads     = metrics.Default.Counter("wal.ship_reads")
	metShipBytes     = metrics.Default.Counter("wal.ship_bytes")
)

// DefaultShipRetain is the folded-WAL retention budget when
// Options.ShipRetain is zero: up to this many bytes of already-folded
// WAL files are kept on disk for pinned cursors.
const DefaultShipRetain = 64 << 20

// Cursor names a record boundary in the WAL stream: the file sequence
// number and the byte offset within that file. The zero Cursor means
// "from the beginning of whatever is retained". Off == 0 is normalized
// to the first record (just past the file header).
type Cursor struct {
	Seq uint64 `json:"seq"`
	Off int64  `json:"off"`
}

// Less orders cursors by stream position.
func (c Cursor) Less(o Cursor) bool {
	return c.Seq < o.Seq || (c.Seq == o.Seq && c.Off < o.Off)
}

func (c Cursor) String() string { return fmt.Sprintf("%d:%d", c.Seq, c.Off) }

// at returns the file offset c names: Off, or the first record's offset
// (just past the file header) when Off is 0.
func (c Cursor) at() int64 {
	if c.Off == 0 {
		return headerLen(c.Seq)
	}
	return c.Off
}

// ErrCursorGone reports a cursor whose WAL file is no longer retained
// (folded into a segment and deleted, or evicted for retention budget)
// or that does not name a valid record boundary. The only way forward
// is a digest round, then a fresh cursor at the durable end.
var ErrCursorGone = errors.New("wal: cursor out of retained range")

// errWALFileMissing distinguishes "no file at this sequence" from a
// definitive ErrCursorGone inside ReadEntries, which classifies it by
// whether the fold point has passed the sequence.
var errWALFileMissing = errors.New("wal: file missing")

// headerLen is the byte length of a WAL/segment file header for seq:
// the 8-byte magic plus the uvarint-encoded sequence number.
func headerLen(seq uint64) int64 {
	return int64(len(magicWAL) + len(transport.AppendUvarint(nil, seq)))
}

// End returns the durable end of the log: the position just past the
// last committed record. Records appended but not yet committed are not
// included — a reader can never observe bytes the owner could still
// lose in a crash.
func (l *Log) End() Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Cursor{Seq: l.seq, Off: l.durableOff}
}

// ReadEntries returns committed framed record bytes starting at c, up
// to roughly maxBytes, and the cursor just past them. The returned
// slice always ends on a record boundary and every record in it has
// passed its CRC. An empty slice with err == nil means the reader is
// caught up (next == durable end). ErrCursorGone means the history at c
// is no longer on disk.
func (l *Log) ReadEntries(c Cursor, maxBytes int) (data []byte, next Cursor, err error) {
	if maxBytes < MaxRecord+16 {
		maxBytes = MaxRecord + 16
	}
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return nil, c, ErrClosed
		}
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return nil, c, err
		}
		active, limit := l.seq, l.durableOff
		l.mu.Unlock()

		if c.Seq == 0 {
			c.Seq = 1
		}
		if c.Seq > active {
			// Ahead of the owner: the owner lost state (restored from an
			// older image). The cursor is dead.
			return nil, c, ErrCursorGone
		}
		if c.Seq < active {
			limit = -1 // rotated files are immutable; read to their size
		}
		chunk, n, rerr := readWALRange(walPath(l.dir, c.Seq), c.at(), limit, maxBytes)
		if errors.Is(rerr, errWALFileMissing) {
			l.mu.Lock()
			segSeq := l.segSeq
			l.mu.Unlock()
			if c.Seq <= segSeq || c.Off != 0 {
				// Folded away (and past retention), or the reader was
				// mid-file in something that vanished.
				return nil, c, ErrCursorGone
			}
			// A sequence above the segment with no file was never written
			// (recovery dropped trailing files after a tear, leaving the
			// range up to the fresh active file hollow). No records lived
			// there — skip forward.
			c = Cursor{Seq: c.Seq + 1}
			continue
		}
		if rerr != nil {
			return nil, c, rerr
		}
		if n > 0 {
			metShipReads.Inc()
			metShipBytes.Add(uint64(n))
			return chunk[:n], Cursor{Seq: c.Seq, Off: c.at() + int64(n)}, nil
		}
		if c.Seq == active {
			// Caught up. Normalize the offset so the caller's next poll
			// starts at a real boundary.
			return nil, Cursor{Seq: c.Seq, Off: c.at()}, nil
		}
		// End of a rotated file: hand off to the next one.
		c = Cursor{Seq: c.Seq + 1}
	}
}

// readWALRange reads framed records from one WAL file starting at off,
// stopping at limit (-1 = file size) or ~maxBytes, whichever comes
// first, and CRC-walks them. It returns the raw bytes and the length of
// their valid record prefix: a tear inside the committed region ends the
// prefix there, and the next call, landing on the tear, reports
// ErrCursorGone, so the reader restarts past the damage. A missing file or a
// cursor that does not land on a valid record is ErrCursorGone.
func readWALRange(path string, off, limit int64, maxBytes int) ([]byte, int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, errWALFileMissing
		}
		return nil, 0, fmt.Errorf("wal: ship read: %w", err)
	}
	defer f.Close()
	if limit < 0 {
		fi, err := f.Stat()
		if err != nil {
			return nil, 0, fmt.Errorf("wal: ship read: %w", err)
		}
		limit = fi.Size()
	}
	if off > limit {
		// Past the durable end of this file: the reader believed bytes
		// the owner no longer has (or the cursor is garbage).
		return nil, 0, ErrCursorGone
	}
	want := min(limit-off, int64(maxBytes))
	if want == 0 {
		return nil, 0, nil
	}
	buf := make([]byte, want)
	m, err := f.ReadAt(buf, off)
	if err != nil && (m < len(buf)) {
		return nil, 0, fmt.Errorf("wal: ship read: %w", err)
	}
	n, werr := WalkBuffer(buf, func(Record) error { return nil })
	if n == 0 && werr != nil {
		// Not a record boundary, or the record at the cursor is damaged.
		// Either way this cursor cannot be served.
		return nil, 0, ErrCursorGone
	}
	return buf, n, nil
}

// Pin reserves WAL history for the named reader: compaction keeps folded WAL
// files with sequence >= c.Seq on disk (within the ShipRetain budget)
// instead of deleting them, so the reader can keep reading across a
// fold — the seal-point handoff. Re-pinning the same name advances
// (or rewinds) its reservation. Pins are in-memory only; they do not
// survive an owner restart.
func (l *Log) Pin(name string, c Cursor) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.pins == nil {
		l.pins = make(map[string]Cursor)
	}
	l.pins[name] = c
}

// Unpin releases a reader's retention reservation.
func (l *Log) Unpin(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.pins, name)
}

// Pins returns a copy of the live retention reservations.
func (l *Log) Pins() map[string]Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]Cursor, len(l.pins))
	for k, v := range l.pins {
		out[k] = v
	}
	return out
}

// retentionLocked decides, at fold time, which folded WAL files to keep
// for pinned cursors and which pins the ShipRetain budget forces off
// the log (their readers fall back to a digest round). candidates maps the just-folded
// sequences to their file sizes; l.retained holds survivors of earlier
// folds. Caller holds l.mu. It returns the sequences to delete and the
// pins that were dropped.
func (l *Log) retentionLocked(candidates map[uint64]int64) (remove []uint64, dropped map[string]Cursor) {
	if l.retained == nil {
		l.retained = make(map[uint64]int64)
	}
	for seq, size := range candidates {
		l.retained[seq] = size
	}
	// Floor: the lowest pinned sequence. Everything below it serves no
	// reader and goes.
	floor := uint64(1<<63 - 1)
	for _, c := range l.pins {
		seq := c.Seq
		if seq == 0 {
			seq = 1
		}
		if seq < floor {
			floor = seq
		}
	}
	seqs := make([]uint64, 0, len(l.retained))
	for seq := range l.retained {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var total int64
	for _, seq := range seqs {
		if seq < floor {
			remove = append(remove, seq)
			delete(l.retained, seq)
			continue
		}
		total += l.retained[seq]
	}
	// Budget: evict oldest-first until under. Each eviction strands every
	// pin at or below the evicted sequence.
	budget := l.retainBytes
	for _, seq := range seqs {
		if total <= budget {
			break
		}
		size, ok := l.retained[seq]
		if !ok {
			continue
		}
		remove = append(remove, seq)
		delete(l.retained, seq)
		total -= size
		for name, c := range l.pins {
			if c.Seq <= seq {
				if dropped == nil {
					dropped = make(map[string]Cursor)
				}
				dropped[name] = c
				delete(l.pins, name)
			}
		}
	}
	metRetainedBytes.Set(total)
	return remove, dropped
}

// DiskUsage reports the bytes the log occupies on disk and the oldest
// sequence numbers still present — the numbers behind retention
// pressure. It scans the directory, so call it at status-poll cadence,
// not per-request.
type DiskUsage struct {
	WALBytes      int64  `json:"wal_bytes"`
	SegmentBytes  int64  `json:"segment_bytes"`
	RetainedBytes int64  `json:"retained_bytes"` // folded WAL kept for pins (subset of WALBytes)
	OldestWALSeq  uint64 `json:"oldest_wal_seq"`
	SegmentSeq    uint64 `json:"segment_seq"`
}

// Usage computes the log's current DiskUsage.
func (l *Log) Usage() DiskUsage {
	var u DiskUsage
	l.mu.Lock()
	dir := l.dir
	for _, size := range l.retained {
		u.RetainedBytes += size
	}
	u.SegmentSeq = l.segSeq
	l.mu.Unlock()
	walSeqs, segSeqs, err := scanDir(dir)
	if err != nil {
		return u
	}
	for _, seq := range walSeqs {
		if fi, err := os.Stat(walPath(dir, seq)); err == nil {
			u.WALBytes += fi.Size()
		}
		if u.OldestWALSeq == 0 || seq < u.OldestWALSeq {
			u.OldestWALSeq = seq
		}
	}
	for _, seq := range segSeqs {
		if fi, err := os.Stat(segPath(dir, seq)); err == nil {
			u.SegmentBytes += fi.Size()
		}
	}
	return u
}
