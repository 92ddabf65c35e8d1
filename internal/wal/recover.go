package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"p2prange/internal/store"
	"p2prange/internal/trace"
)

// Recovery summarizes what Open found and replayed. Every count is also
// emitted on the recovery trace span and the wal.* metrics, so a
// restart is observable end to end.
type Recovery struct {
	// SegmentSeq is the sealed segment the boot image started from
	// (0 = none existed).
	SegmentSeq uint64 `json:"segment_seq"`
	// SegmentRecords is the number of descriptors restored from it.
	SegmentRecords int `json:"segment_records"`
	// BadSegments counts sealed-looking segments that failed validation
	// and were skipped (an older segment or the WAL still covered them).
	BadSegments int `json:"bad_segments,omitempty"`
	// WALFiles is the number of WAL files replayed on top.
	WALFiles int `json:"wal_files"`
	// Replayed is the number of WAL records applied.
	Replayed int `json:"replayed"`
	// TornTail reports that replay hit a torn or corrupt record. The
	// file was truncated at the last valid record, so the next boot
	// replays cleanly.
	TornTail bool `json:"torn_tail,omitempty"`
	// DroppedFiles counts WAL files discarded because they followed a
	// corrupt record in an earlier file (their ordering guarantee was
	// gone). Only media corruption — never a plain crash — causes this.
	DroppedFiles int `json:"dropped_files,omitempty"`
	// ReadThrough reports that the boot segment was opened for
	// read-through (kept on disk behind a reader) instead of loaded into
	// memory.
	ReadThrough bool `json:"read_through,omitempty"`
	// IndexRebuilt reports that the boot segment's footer (index +
	// blooms) was damaged and rebuilt by a full scan. Slower boot, same
	// answers.
	IndexRebuilt bool `json:"index_rebuilt,omitempty"`
	// Elapsed is the wall-clock time Open spent scanning and replaying.
	Elapsed time.Duration `json:"elapsed"`
}

// StoreRestorer adapts a store into a record applier: puts restore
// descriptors with their version and origin stamps intact (so
// anti-entropy later backfills only what is genuinely missing), evicts
// and arc-drops replay removals. Open replays through it; a log-shipping
// follower applies shipped records through it.
func StoreRestorer(s *store.Store) func(Record) error {
	return func(r Record) error {
		switch r.Op {
		case OpPut:
			s.Put(r.ID, r.Part)
		case OpEvict:
			s.Delete(r.ID, r.Key)
		case OpDropArc:
			s.ExtractArc(r.From, r.To)
		}
		return nil
	}
}

// Open recovers the durable state in opt.Dir into st — newest valid
// segment first, then every WAL file above it, in order, stopping at the
// first torn record. It then starts a fresh WAL file and attaches the
// live log as st's journal, so the replay itself is not journaled again
// and every later mutation is. The directory is created if missing (an
// empty one is simply a new peer). Open never returns a log on error; a
// nil error means st is recovered and write-through.
//
// A bounded st reads through: the boot segment stays on disk behind a
// SegmentReader as st's disk tier (only WAL records are replayed into
// memory), and every compaction swaps the new segment in. An unbounded
// st loads the segment's records into memory.
//
// Replay is conservative: a torn tail is truncated in place (the bytes
// after the last valid record were never acknowledged, by the commit
// barrier), and WAL files after a mid-stream corruption are deleted
// rather than replayed out of order — anti-entropy re-fetches anything
// lost to actual media corruption.
func Open(opt Options, st *store.Store) (*Log, Recovery, error) {
	start := time.Now()
	var rec Recovery
	if opt.Dir == "" {
		return nil, rec, fmt.Errorf("wal: no data directory")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("wal: %w", err)
	}
	sp := trace.New("wal.recover")
	defer sp.End()

	removeTemps(opt.Dir)
	walSeqs, segSeqs, err := scanDir(opt.Dir)
	if err != nil {
		return nil, rec, err
	}

	// Phase 1: newest fully-valid segment wins; bad ones are skipped
	// (all-or-nothing — a segment either loads completely or not at all).
	// Read-through keeps the segment's records on disk behind a reader (a
	// damaged footer only forces an index rebuild — the record stream
	// still decides validity); otherwise they are applied into memory.
	rec.ReadThrough = st.Bounded()
	if rec.ReadThrough {
		// Two-tier from the start, so replayed puts see the disk tier to
		// dedupe against; the boot segment, if any, attaches below.
		st.SetSegments(nil)
	}
	var maxSeq uint64
	var reader *SegmentReader
	for i := len(segSeqs) - 1; i >= 0; i-- {
		seq := segSeqs[i]
		if seq > maxSeq {
			maxSeq = seq
		}
		if rec.SegmentSeq != 0 {
			continue
		}
		if rec.ReadThrough {
			r, err := OpenSegmentReader(opt.Dir, seq)
			if err != nil {
				rec.BadSegments++
				sp.Eventf("segment", "skip seg %d: %v", seq, err)
				continue
			}
			reader = r
			st.SetSegments(r)
			rec.SegmentSeq = seq
			rec.SegmentRecords = r.Len()
			rec.IndexRebuilt = r.Rebuilt()
			sp.Eventf("segment", "opened seg %d for read-through: %d records (index rebuilt: %v)",
				seq, r.Len(), r.Rebuilt())
			continue
		}
		puts, err := loadSegment(opt.Dir, seq)
		if err != nil {
			rec.BadSegments++
			sp.Eventf("segment", "skip seg %d: %v", seq, err)
			continue
		}
		for _, r := range puts {
			st.Put(r.ID, r.Part) // a segment holds only puts
		}
		rec.SegmentSeq = seq
		rec.SegmentRecords = len(puts)
		sp.Eventf("segment", "restored %d records from seg %d", len(puts), seq)
	}
	fail := func(err error) (*Log, Recovery, error) {
		if reader != nil {
			reader.Close()
		}
		return nil, rec, err
	}

	// Phase 2: replay WAL files above the segment, ascending. Files at
	// or below it were folded in already — stale leftovers, removed.
	apply := StoreRestorer(st)
	for i := 0; i < len(walSeqs); i++ {
		seq := walSeqs[i]
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq <= rec.SegmentSeq {
			os.Remove(walPath(opt.Dir, seq))
			continue
		}
		applied := 0
		_, end, err := readWAL(opt.Dir, seq, func(r Record) error {
			applied++
			return apply(r)
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			return fail(fmt.Errorf("wal: %w", err))
		}
		rec.WALFiles++
		rec.Replayed += applied
		sp.Eventf("replay", "wal %d: %d records", seq, applied)
		if err == nil {
			continue
		}
		// Torn or corrupt record: truncate this file at the last valid
		// record and drop every later file — records after a tear have
		// no ordering guarantee. Commit acknowledges only after fsync,
		// so nothing acknowledged lives past this point in this file.
		rec.TornTail = true
		metTornTails.Inc()
		path := walPath(opt.Dir, seq)
		if end == 0 {
			sp.Eventf("torn", "wal %d: %v — dropping file", seq, err)
			os.Remove(path)
		} else {
			sp.Eventf("torn", "wal %d: %v — truncated at %d records", seq, err, applied)
			if terr := os.Truncate(path, end); terr != nil {
				return fail(fmt.Errorf("wal: truncate torn tail: %w", terr))
			}
		}
		for _, later := range walSeqs[i+1:] {
			if later > maxSeq {
				maxSeq = later
			}
			os.Remove(walPath(opt.Dir, later))
			rec.DroppedFiles++
		}
		break
	}
	if rec.DroppedFiles > 0 {
		sp.Eventf("torn", "dropped %d later wal file(s)", rec.DroppedFiles)
	}

	// Phase 3: start a fresh WAL strictly above everything seen, so a
	// half-replayed boot can never append into a file it distrusted.
	if opt.CompactEvery == 0 {
		opt.CompactEvery = DefaultCompactEvery
	} else if opt.CompactEvery < 0 {
		opt.CompactEvery = 0
	}
	seq := maxSeq + 1
	f, err := createFile(walPath(opt.Dir, seq), magicWAL, seq)
	if err != nil {
		return fail(err)
	}
	if err := syncDir(opt.Dir); err != nil {
		f.Close()
		return fail(err)
	}
	retain := opt.ShipRetain
	if retain == 0 {
		retain = DefaultShipRetain
	} else if retain < 0 {
		retain = 0
	}
	l := &Log{
		dir:          opt.Dir,
		fsync:        opt.Fsync,
		compactEvery: opt.CompactEvery,
		retainBytes:  retain,
		onSeal:       opt.OnSeal,
		onRetainDrop: opt.OnRetainDrop,
		f:            f,
		seq:          seq,
		segSeq:       rec.SegmentSeq,
		reader:       reader,
		sinceFold:    rec.Replayed, // unfolded records carried over; fold soon if many
		durableOff:   headerLen(seq),
	}
	l.cond = sync.NewCond(&l.mu)
	if rec.ReadThrough {
		l.tier = st
	}
	st.SetJournal(l)

	rec.Elapsed = time.Since(start)
	metRecovers.Inc()
	metReplayed.Add(uint64(rec.Replayed))
	sp.Eventf("open", "active wal %d, %s", seq, rec.Elapsed.Round(time.Microsecond))
	return l, rec, nil
}

// scanDir lists WAL and segment sequence numbers in ascending order. It
// only reads the directory; its writer clears stray temps (removeTemps).
func scanDir(dir string) (walSeqs, segSeqs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if _, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err == nil && seq > 0 {
				walSeqs = append(walSeqs, seq)
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg"):
			if _, err := fmt.Sscanf(name, "seg-%016x.seg", &seq); err == nil && seq > 0 {
				segSeqs = append(segSeqs, seq)
			}
		}
	}
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	return walSeqs, segSeqs, nil
}

// removeTemps deletes the *.tmp files an interrupted segment, backup or
// restore write left in dir. Only the directory's one writer may call it:
// a reader (walctl verify on a live peer's backup directory) could
// otherwise delete a file the writer is about to rename into place.
func removeTemps(dir string) {
	entries, _ := os.ReadDir(dir) // unreadable: scanDir reports it
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
