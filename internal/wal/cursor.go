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
// follower holds a Cursor — (WAL file sequence, byte offset) — naming a
// record boundary in the owner's log, and ReadEntries hands back the
// framed record bytes from there up to the durable watermark, verbatim.
// Because the bytes on the wire are the bytes on disk, a follower that
// applies them through the same replay path recovery uses converges to
// exactly the state a local recovery of the owner's directory would
// produce.
//
// Compaction is the enemy of a lagging cursor: folding deletes the WAL
// files the cursor still needs. Pin reserves them — compaction retains
// folded files at or above the lowest pinned sequence, up to the
// Options.ShipRetain byte budget. A pin evicted for budget (or a cursor
// pre-dating retention entirely) gets ErrCursorGone, and the follower
// reseeds from the sealed segment instead (ReadSegmentChunk), tailing
// the WAL from the seal point afterwards.

var (
	metRetainedBytes = metrics.Default.Gauge("wal.retained_bytes")
	metRetainDrops   = metrics.Default.Counter("wal.retain_drops")
	metShipReads     = metrics.Default.Counter("wal.ship_reads")
	metShipBytes     = metrics.Default.Counter("wal.ship_bytes")
)

// DefaultShipRetain is the folded-WAL retention budget when
// Options.ShipRetain is zero: up to this many bytes of already-folded
// WAL files are kept on disk for pinned follower cursors.
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

// IsZero reports the zero cursor (subscribe-from-anywhere).
func (c Cursor) IsZero() bool { return c.Seq == 0 && c.Off == 0 }

func (c Cursor) String() string { return fmt.Sprintf("%d:%d", c.Seq, c.Off) }

// ErrCursorGone reports a cursor whose WAL file is no longer retained
// (folded into a segment and deleted, or evicted for retention budget)
// or that does not name a valid record boundary. The only way forward
// is a snapshot reseed from the sealed segment.
var ErrCursorGone = errors.New("wal: cursor out of retained range")

// ErrSegmentGone reports a snapshot read against a segment that
// compaction has since replaced; the follower restarts the snapshot
// against the current one.
var ErrSegmentGone = errors.New("wal: segment replaced")

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
// included — a follower can never observe bytes the owner could still
// lose in a crash.
func (l *Log) End() Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Cursor{Seq: l.seq, Off: l.durableOff}
}

// TailStart returns the cursor a follower without servable history
// should tail from when no segment exists to seed it: the start of the
// lowest WAL file on disk at or above c. ok is false only if the
// directory cannot be scanned.
func (l *Log) TailStart(c Cursor) (Cursor, bool) {
	walSeqs, _, err := scanDir(l.dir)
	if err != nil || len(walSeqs) == 0 {
		return Cursor{}, false
	}
	for _, seq := range walSeqs {
		if seq >= c.Seq {
			return Cursor{Seq: seq}, true
		}
	}
	return Cursor{Seq: walSeqs[len(walSeqs)-1]}, true
}

// ReadEntries returns committed framed record bytes starting at c, up
// to roughly maxBytes, and the cursor just past them. The returned
// slice always ends on a record boundary and every record in it has
// passed its CRC. An empty slice with err == nil means the follower is
// caught up (next == durable end). ErrCursorGone means the history at c
// is no longer on disk — reseed from the segment.
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
			// older image). The follower must reseed.
			return nil, c, ErrCursorGone
		}
		if c.Seq < active {
			limit = -1 // rotated files are immutable; read to their size
		}
		chunk, n, _, rerr := readWALRange(walPath(l.dir, c.Seq), c.Seq, c.Off, limit, maxBytes)
		if errors.Is(rerr, errWALFileMissing) {
			l.mu.Lock()
			segSeq := l.segSeq
			l.mu.Unlock()
			if c.Seq <= segSeq || c.Off != 0 {
				// Folded away (and past retention), or the follower was
				// mid-file in something that vanished. Reseed.
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
			start := c.Off
			if start == 0 {
				start = headerLen(c.Seq)
			}
			return chunk[:n], Cursor{Seq: c.Seq, Off: start + int64(n)}, nil
		}
		if c.Seq == active {
			// Caught up. Normalize the offset so the caller's next poll
			// starts at a real boundary.
			start := c.Off
			if start == 0 {
				start = headerLen(c.Seq)
			}
			return nil, Cursor{Seq: c.Seq, Off: start}, nil
		}
		// End of a rotated file: hand off to the next one.
		c = Cursor{Seq: c.Seq + 1}
	}
}

// readWALRange reads framed records from one WAL file starting at off
// (0 = first record), stopping at limit (-1 = file size) or ~maxBytes,
// whichever comes first, and CRC-walks them. It returns the raw bytes,
// the length of the valid record prefix, and the record count. A
// missing file or a cursor that does not land on a valid record is
// ErrCursorGone.
func readWALRange(path string, seq uint64, off, limit int64, maxBytes int) ([]byte, int, int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, errWALFileMissing
		}
		return nil, 0, 0, fmt.Errorf("wal: ship read: %w", err)
	}
	defer f.Close()
	if off == 0 {
		off = headerLen(seq)
	}
	if limit < 0 {
		fi, err := f.Stat()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("wal: ship read: %w", err)
		}
		limit = fi.Size()
	}
	if off > limit {
		// Past the durable end of this file: the follower believed bytes
		// the owner no longer has (or the cursor is garbage). Reseed.
		return nil, 0, 0, ErrCursorGone
	}
	want := limit - off
	truncated := false
	if want > int64(maxBytes) {
		want = int64(maxBytes)
		truncated = true
	}
	if want == 0 {
		return nil, 0, 0, nil
	}
	buf := make([]byte, want)
	m, err := f.ReadAt(buf, off)
	if err != nil && (m < len(buf)) {
		return nil, 0, 0, fmt.Errorf("wal: ship read: %w", err)
	}
	recs := 0
	n, werr := WalkBuffer(buf, func(Record) error { recs++; return nil })
	if n == 0 && werr != nil {
		// Not a record boundary, or the record at the cursor is damaged.
		// Either way this cursor cannot be served.
		return nil, 0, 0, ErrCursorGone
	}
	if n < len(buf) && werr != nil && !truncated {
		// A tear inside the committed region of the file. The valid prefix
		// is still good — ship it; the next call lands on the tear and
		// reports ErrCursorGone, forcing a reseed past the damage.
		return buf, n, recs, nil
	}
	return buf, n, recs, nil
}

// Servable reports whether ReadEntries can serve cursor c without a
// reseed: the position is at or below the durable end and its WAL file
// is either still on disk or provably hollow (above the fold point).
// Offset misalignment within a live file is caught later, by the CRC
// walk.
func (l *Log) Servable(c Cursor) bool {
	l.mu.Lock()
	active, segSeq, durable := l.seq, l.segSeq, l.durableOff
	l.mu.Unlock()
	if c.IsZero() || c.Seq > active {
		return false
	}
	if c.Seq == active && c.Off > durable {
		return false
	}
	if c.Seq > segSeq {
		return true
	}
	fi, err := os.Stat(walPath(l.dir, c.Seq))
	return err == nil && c.Off <= fi.Size()
}

// Lag returns the approximate committed bytes between c and the
// durable end — the follower's catch-up debt. Directory-stat based;
// call at status cadence.
func (l *Log) Lag(c Cursor) int64 {
	end := l.End()
	if !c.Less(end) {
		return 0
	}
	if c.Seq == end.Seq {
		off := c.Off
		if off == 0 {
			off = headerLen(c.Seq)
		}
		return end.Off - off
	}
	var lag int64
	for seq := c.Seq; seq < end.Seq; seq++ {
		fi, err := os.Stat(walPath(l.dir, seq))
		if err != nil {
			continue
		}
		size := fi.Size()
		if seq == c.Seq && c.Off > 0 {
			size -= c.Off
		} else {
			size -= headerLen(seq)
		}
		if size > 0 {
			lag += size
		}
	}
	return lag + end.Off - headerLen(end.Seq)
}

// SegmentInfo reports the current sealed segment, if any: its sequence
// number and byte size. The seal point — where a snapshot-seeded
// follower starts tailing — is Cursor{Seq: seq + 1}.
func (l *Log) SegmentInfo() (seq uint64, size int64, ok bool) {
	l.mu.Lock()
	seq = l.segSeq
	l.mu.Unlock()
	if seq == 0 {
		return 0, 0, false
	}
	fi, err := os.Stat(segPath(l.dir, seq))
	if err != nil {
		return 0, 0, false
	}
	return seq, fi.Size(), true
}

// ReadSegmentChunk reads maxBytes (or less at EOF) of sealed segment
// seq starting at byte off, for snapshot seeding and backup. The chunk
// is raw file bytes — reassembling all chunks reproduces the segment
// file exactly, CRC-verifiable as a whole via ParseSegment.
// ErrSegmentGone means compaction replaced the segment; restart against
// SegmentInfo's current one.
func (l *Log) ReadSegmentChunk(seq uint64, off int64, maxBytes int) (data []byte, total int64, err error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	f, err := os.Open(segPath(l.dir, seq))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, ErrSegmentGone
		}
		return nil, 0, fmt.Errorf("wal: segment chunk: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("wal: segment chunk: %w", err)
	}
	total = fi.Size()
	if off < 0 || off > total {
		return nil, total, fmt.Errorf("wal: segment chunk: offset %d outside [0,%d]", off, total)
	}
	want := total - off
	if want > int64(maxBytes) {
		want = int64(maxBytes)
	}
	buf := make([]byte, want)
	if _, err := f.ReadAt(buf, off); err != nil && int64(len(buf)) == want {
		return nil, total, fmt.Errorf("wal: segment chunk: %w", err)
	}
	return buf, total, nil
}

// Pin reserves WAL history for a follower: compaction keeps folded WAL
// files with sequence >= c.Seq on disk (within the ShipRetain budget)
// instead of deleting them, so the follower can keep tailing across a
// fold — the seal-point handoff. Re-pinning the same follower advances
// (or rewinds) its reservation. Pins are in-memory only; they do not
// survive an owner restart.
func (l *Log) Pin(follower string, c Cursor) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.pins == nil {
		l.pins = make(map[string]Cursor)
	}
	l.pins[follower] = c
}

// Unpin releases a follower's retention reservation.
func (l *Log) Unpin(follower string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.pins, follower)
}

// Pins returns a copy of the live follower reservations.
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
// the log (onto the snapshot path). candidates maps the just-folded
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
	// follower and goes.
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
	// pin at or below the evicted sequence — those followers must reseed.
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
		for follower, c := range l.pins {
			if c.Seq <= seq {
				if dropped == nil {
					dropped = make(map[string]Cursor)
				}
				dropped[follower] = c
				delete(l.pins, follower)
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
	Pins          int    `json:"pins"`
}

// Usage computes the log's current DiskUsage.
func (l *Log) Usage() DiskUsage {
	var u DiskUsage
	l.mu.Lock()
	dir := l.dir
	for _, size := range l.retained {
		u.RetainedBytes += size
	}
	u.Pins = len(l.pins)
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

// Walker is WalkBuffer with reusable parse state: the cursor and its
// string interner persist across calls, so walking a steady stream of
// shipped batches allocates nothing after warm-up. Not safe for
// concurrent use — give each goroutine its own.
type Walker struct {
	c *transport.Cursor
}

// NewWalker builds a reusable record walker.
func NewWalker() *Walker { return &Walker{c: transport.NewCursor(nil)} }

// Walk is WalkBuffer over the walker's cursor.
func (w *Walker) Walk(buf []byte, fn func(Record) error) (int, error) {
	return walkRecordsWith(w.c, buf, fn)
}
