package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"p2prange/internal/chord"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// Segment files are the folded, immutable form of the log: one OpPut
// record per live descriptor (eviction and arc-drop records cancel puts
// during the fold, so they never appear in a segment), terminated by a
// seal record carrying the put count. A segment missing its seal — or
// failing any frame check before it — is a partial compaction and is
// ignored as a whole; the WAL files it would have replaced are still on
// disk, because compaction deletes its inputs only after the sealed
// segment is durable.

// File header magics. The trailing byte is the format version.
var (
	magicWAL = []byte("p2rWAL\x00\x01")
	magicSEG = []byte("p2rSEG\x00\x01")
)

// createFile creates path exclusively, writes the header (magic +
// uvarint seq), and syncs it so the header itself cannot be torn.
func createFile(path string, magic []byte, seq uint64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	hdr := append(make([]byte, 0, len(magic)+10), magic...)
	hdr = transport.AppendUvarint(hdr, seq)
	if _, err := f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("wal: write header: %w", err)
	}
	return f, nil
}

// parseHeader checks data's magic and sequence number and returns the
// record region that follows.
func parseHeader(data, magic []byte, wantSeq uint64) ([]byte, error) {
	seq, body, err := splitHeader(data, magic)
	if err == nil && seq != wantSeq {
		err = fmt.Errorf("%w: header seq %d, filename says %d", ErrCorrupt, seq, wantSeq)
	}
	return body, err
}

// splitHeader checks data's magic and returns the header's sequence
// number (never 0: files are numbered from 1) and the record region that
// follows. Restore reads a segment's sequence number this way, since the
// name of a file an operator hands it proves nothing.
func splitHeader(data, magic []byte) (uint64, []byte, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic) {
		return 0, nil, fmt.Errorf("%w: bad file magic", ErrCorrupt)
	}
	c := transport.NewCursor(data[len(magic):])
	seq := c.Uvarint()
	if c.Err != nil || seq == 0 {
		return 0, nil, fmt.Errorf("%w: torn header", ErrCorrupt)
	}
	return seq, data[len(data)-c.Len():], nil
}

// foldState is the in-memory image a fold builds: bucket id -> descriptor
// key -> descriptor. Applying a record stream to it reproduces exactly
// the store.Put / Delete / ExtractArc semantics, so folding then
// restoring equals replaying.
type foldState map[store.ID]map[string]store.Partition

func (st foldState) apply(r Record) {
	switch r.Op {
	case OpPut:
		key := r.Part.Key()
		bucket := st[r.ID]
		if bucket == nil {
			bucket = make(map[string]store.Partition)
			st[r.ID] = bucket
		}
		// First holder wins; a strictly higher version upgrades in place
		// (store.Put's admission rule).
		if have, ok := bucket[key]; !ok || r.Part.Version > have.Version {
			bucket[key] = r.Part
		}
	case OpEvict:
		if bucket, ok := st[r.ID]; ok {
			delete(bucket, r.Key)
			if len(bucket) == 0 {
				delete(st, r.ID)
			}
		}
	case OpDropArc:
		for id := range st {
			if chord.BetweenRightIncl(r.From, r.To, id) {
				delete(st, id)
			}
		}
	}
}

// readWAL is the one reader of WAL files, for recovery, folds and
// walctl verify: it reads WAL file seq in dir, checks its header and
// calls fn with each valid record in order. It returns the file's size
// and the offset just past the last valid record, which is 0 when the
// header itself is bad. Damage (a bad header, a torn or corrupt record)
// is an ErrCorrupt error; any other error is the read's or fn's own.
func readWAL(dir string, seq uint64, fn func(Record) error) (size, end int64, err error) {
	data, err := os.ReadFile(walPath(dir, seq))
	if err != nil {
		return 0, 0, err
	}
	body, err := parseHeader(data, magicWAL, seq)
	if err != nil {
		return int64(len(data)), 0, err
	}
	n, err := WalkBuffer(body, fn)
	return int64(len(data)), int64(len(data) - len(body) + n), err
}

// foldFiles builds the fold state from segment segSeq (if any) plus the
// WAL files with sequence numbers in (segSeq, upto]. A missing WAL file
// in that range is fine (nothing was ever written at that sequence —
// cannot happen today, but tolerating it keeps folds total); a corrupt
// record mid-file ends that file's contribution at the tear, exactly as
// recovery would.
func foldFiles(dir string, segSeq, upto uint64) (foldState, int, error) {
	state := make(foldState)
	folded := 0
	if segSeq != 0 {
		recs, err := loadSegment(dir, segSeq)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: fold base segment %d: %w", segSeq, err)
		}
		for _, r := range recs {
			state.apply(r)
		}
		folded += len(recs)
	}
	for seq := segSeq + 1; seq <= upto; seq++ {
		_, end, err := readWAL(dir, seq, func(r Record) error {
			state.apply(r)
			folded++
			return nil
		})
		// A missing file was never written, and a torn tail only ends its
		// file's records: the fold goes on. A bad header or a failed read
		// fails it.
		if err != nil && !os.IsNotExist(err) && (end == 0 || !errors.Is(err, ErrCorrupt)) {
			return nil, 0, fmt.Errorf("wal: fold wal %d: %w", seq, err)
		}
	}
	return state, folded, nil
}

// writeSegment writes state as sealed segment seq, atomically
// (installFile). Output order is deterministic (ascending bucket id, then
// key) so identical states produce identical files.
func writeSegment(dir string, seq uint64, state foldState) error {
	ids := make([]store.ID, 0, len(state))
	for id := range state {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	total := 0
	for _, id := range ids {
		total += len(state[id])
	}
	buf := append([]byte(nil), magicSEG...)
	buf = transport.AppendUvarint(buf, seq)
	ib := indexBuilder{hashes: make([]uint64, 0, 2*total)}
	for _, id := range ids {
		bucket := state[id]
		keys := make([]string, 0, len(bucket))
		for k := range bucket {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ib.add(int64(len(buf)), id, k)
			buf = AppendFramed(buf, &Record{Op: OpPut, ID: id, Part: bucket[k]})
		}
	}
	x := ib.finish(int64(len(buf)))
	buf = AppendFramed(buf, &Record{Op: opSeal, Count: uint64(x.count)})
	// The footer (sparse index + blooms + locator trailer) rides after the
	// seal: the seal stays the commit point, the footer only accelerates
	// reads and is rebuilt from a scan if damaged (segreader.go).
	buf = appendFooter(buf, x)
	return installFile(segPath(dir, seq), buf)
}

// loadSegment reads sealed segment seq and returns its put records, with
// ParseSegment's all-or-nothing contract.
func loadSegment(dir string, seq uint64) ([]Record, error) {
	data, err := os.ReadFile(segPath(dir, seq))
	if err != nil {
		return nil, err
	}
	return ParseSegment(data, seq)
}

// ParseSegment validates a full sealed-segment image (as read from disk
// or reassembled from streamed snapshot chunks) and returns its put
// records. Same all-or-nothing contract as booting from the file: every
// record CRC-checked, seal present, seal count matching. This is how a
// snapshot-seeded follower proves the bytes it received are exactly a
// bootable segment before applying them.
func ParseSegment(data []byte, seq uint64) ([]Record, error) {
	puts, err := parseSegment(data, seq)
	if err != nil {
		return nil, err
	}
	return puts, nil
}

// parseSegment is the one decoder of a segment image held in memory,
// behind ParseSegment, walctl verify and restore: the header, then
// decodeSegment over the records. It returns the put records read before
// any damage, and the damage (nil for a bootable image). Bytes after the
// seal are the footer (index + blooms, possibly damaged) and are not
// read: the seal is the commit point, the footer only accelerates reads.
func parseSegment(data []byte, seq uint64) ([]Record, error) {
	body, err := parseHeader(data, magicSEG, seq)
	if err != nil {
		return nil, err
	}
	var puts []Record
	_, err = decodeSegment(bytes.NewReader(data), int64(len(data)-len(body)), int64(len(data)), func(_ int64, r Record) {
		puts = append(puts, r)
	})
	return puts, err
}

// decodeSegment is the one decoder of a segment's record stream, in
// memory (parseSegment) or on disk (SegmentReader's index rebuild). It
// walks the records in [recStart, end) of ra and calls put with each put
// record and its offset, up to the seal record, which must carry the put
// count; it returns the seal's offset. A frame or body that fails its
// check, any other op, a count mismatch or a missing seal is ErrCorrupt,
// and put has then seen exactly the records before the damage.
func decodeSegment(ra io.ReaderAt, recStart, end int64, put func(off int64, r Record)) (int64, error) {
	puts, sealAt := uint64(0), int64(-1)
	err := walkFrames(ra, recStart, end, func(off int64, body []byte, c *transport.Cursor) (bool, error) {
		c.Reset(body)
		r, err := ParseRecord(c)
		switch {
		case err != nil:
			return false, err
		case r.Op == OpPut:
			put(off, r)
			puts++
			return false, nil
		case r.Op != opSeal:
			return false, fmt.Errorf("%w: op %d in segment", ErrCorrupt, r.Op)
		case r.Count != puts:
			return false, fmt.Errorf("%w: seal count %d, have %d records", ErrCorrupt, r.Count, puts)
		}
		sealAt = off
		return true, nil
	})
	if err == nil && sealAt < 0 {
		err = fmt.Errorf("%w: unsealed segment", ErrCorrupt)
	}
	return sealAt, err
}
