package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"

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
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("%w: bad file magic", ErrCorrupt)
	}
	c := transport.NewCursor(data[len(magic):])
	seq := c.Uvarint()
	if c.Err != nil {
		return nil, fmt.Errorf("%w: torn header", ErrCorrupt)
	}
	if seq != wantSeq {
		return nil, fmt.Errorf("%w: header seq %d, filename says %d", ErrCorrupt, seq, wantSeq)
	}
	return data[len(data)-c.Len():], nil
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
			if onArcRightIncl(r.From, r.To, id) {
				delete(st, id)
			}
		}
	}
}

// onArcRightIncl reports whether x lies on the ring arc (from, to]
// (mirrors store's betweenRightIncl, including from==to = whole circle).
func onArcRightIncl(from, to, x store.ID) bool {
	if x == to {
		return true
	}
	if from < to {
		return from < x && x < to
	}
	return x > from || x < to
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
		data, err := os.ReadFile(walPath(dir, seq))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("wal: fold: %w", err)
		}
		recs, err := parseHeader(data, magicWAL, seq)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: fold wal %d: %w", seq, err)
		}
		n, _ := WalkBuffer(recs, func(r Record) error {
			state.apply(r)
			folded++
			return nil
		})
		_ = n // a torn tail ends this file's records; later files still fold
	}
	return state, folded, nil
}

// writeSegment writes state as sealed segment seq, atomically: records
// go to a .tmp file, which is fsynced and renamed into place, then the
// directory is fsynced. Output order is deterministic (ascending bucket
// id, then key) so identical states produce identical files.
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
	x := &segIndex{keys: newBloom(total), ids: newBloom(total)}
	for _, id := range ids {
		bucket := state[id]
		keys := make([]string, 0, len(bucket))
		for k := range bucket {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := bucket[k]
			if x.count%segIndexEvery == 0 {
				x.entries = append(x.entries, indexEntry{id: id, off: int64(len(buf))})
			}
			x.keys.add(hashIDKey(uint32(id), k))
			x.ids.add(hashID(uint32(id)))
			buf = AppendFramed(buf, &Record{Op: OpPut, ID: id, Part: p})
			x.count++
		}
	}
	x.dataEnd = int64(len(buf))
	buf = AppendFramed(buf, &Record{Op: opSeal, Count: uint64(x.count)})
	// The footer (sparse index + blooms + locator trailer) rides after the
	// seal: the seal stays the commit point, the footer only accelerates
	// reads and is rebuilt from a scan if damaged (segreader.go).
	buf = appendFooter(buf, x)

	tmp := segPath(dir, seq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: segment tmp: %w", err)
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: segment write: %w", err)
	}
	if err := os.Rename(tmp, segPath(dir, seq)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: segment rename: %w", err)
	}
	return syncDir(dir)
}

// errSealStop ends a segment walk cleanly at the seal record.
var errSealStop = errors.New("wal: seal reached")

// loadSegment reads sealed segment seq and returns its put records. The
// record stream is all-or-nothing: any framing failure, a missing seal,
// or a seal count mismatch rejects the whole file. Bytes after the seal
// are the footer (index + blooms, possibly damaged) and are ignored —
// the seal is the commit point, the footer only accelerates reads.
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
	recs, err := parseHeader(data, magicSEG, seq)
	if err != nil {
		return nil, err
	}
	var puts []Record
	sealed := false
	_, err = WalkBuffer(recs, func(r Record) error {
		switch r.Op {
		case opSeal:
			if r.Count != uint64(len(puts)) {
				return fmt.Errorf("%w: seal count %d, have %d records", ErrCorrupt, r.Count, len(puts))
			}
			sealed = true
			return errSealStop
		case OpPut:
			puts = append(puts, r)
		default:
			return fmt.Errorf("%w: op %d in segment", ErrCorrupt, r.Op)
		}
		return nil
	})
	if err != nil && !errors.Is(err, errSealStop) {
		return nil, err
	}
	if !sealed {
		return nil, fmt.Errorf("%w: unsealed segment", ErrCorrupt)
	}
	return puts, nil
}
