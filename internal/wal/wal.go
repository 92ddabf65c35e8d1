package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"p2prange/internal/metrics"
	"p2prange/internal/store"
)

var (
	metAppends    = metrics.Default.Counter("wal.appends")
	metCommits    = metrics.Default.Counter("wal.commits")
	metFsyncs     = metrics.Default.Counter("wal.fsyncs")
	metFlushBytes = metrics.Default.Counter("wal.flush_bytes")
	metCompacts   = metrics.Default.Counter("wal.compactions")
	metCompactErr = metrics.Default.Counter("wal.compact_errors")
	metFolded     = metrics.Default.Counter("wal.folded_records")
	metReplayed   = metrics.Default.Counter("wal.replayed_records")
	metTornTails  = metrics.Default.Counter("wal.torn_tails")
	metRecovers   = metrics.Default.Counter("wal.recoveries")
)

// FsyncMode selects the durability barrier run on commit.
type FsyncMode int

const (
	// FsyncAlways fsyncs before acknowledging a commit. One fsync may
	// cover many writers (group commit), but no acknowledged write can
	// be lost to a crash.
	FsyncAlways FsyncMode = iota
	// FsyncOff writes without syncing: the OS page cache decides when
	// bytes reach disk. Survives process crashes (the kernel still holds
	// the pages) but not machine crashes. For benchmarks and tests.
	FsyncOff
)

// ParseFsyncMode parses the -fsync flag values "always" and "off".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (want always or off)", s)
}

// String names the mode as the -fsync flag spells it.
func (m FsyncMode) String() string {
	if m == FsyncOff {
		return "off"
	}
	return "always"
}

// DefaultCompactEvery is the fold threshold when Options.CompactEvery
// is zero: once this many records accumulate in WAL files, the next
// commit folds them into a segment.
const DefaultCompactEvery = 4096

// Options configures a durable log.
type Options struct {
	// Dir is the peer's data directory, created if absent. One peer per
	// directory; two live peers sharing one corrupt each other.
	Dir string
	// Fsync is the commit barrier mode (default FsyncAlways).
	Fsync FsyncMode
	// CompactEvery folds WAL files into a segment once that many records
	// accumulate. Zero means DefaultCompactEvery; negative disables
	// automatic compaction (Checkpoint still compacts on demand).
	CompactEvery int
	// ShipRetain caps the bytes of folded WAL files kept on disk for
	// pinned push cursors (replica sync). Zero means DefaultShipRetain;
	// negative retains nothing (folded files are deleted eagerly, the
	// pre-shipping behavior).
	ShipRetain int64
	// OnSeal is called after each successful compaction with the new
	// segment's sequence number, on the compaction goroutine, holding no
	// wal locks. Used to mirror sealed segments into a backup directory.
	OnSeal func(seq uint64)
	// OnRetainDrop is called when a fold (or the ShipRetain budget)
	// deleted WAL files a push cursor still pinned (name is the pin's,
	// push:<addr>): the next sync to that successor falls back to a
	// digest round. Compaction goroutine, no locks.
	OnRetainDrop func(name string, c Cursor)
}

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: closed")

// Log is one peer's durable journal: an append-only WAL for mutations
// plus immutable segments produced by compaction. It implements
// store.Journal, and Open attaches it to the store it recovered, so
// every later mutation is write-through.
//
// The append methods (Put, Evict, DropArc) only buffer in memory — the
// store calls them under its write lock, so WAL order always equals
// apply order, and they must never block on IO. Commit is the
// durability barrier: it writes and fsyncs everything buffered so far,
// batching concurrent committers behind a single fsync (the
// first-waiter-becomes-flusher idiom of transport's groupWriter).
type Log struct {
	dir          string
	fsync        FsyncMode
	compactEvery int                  // 0 = disabled
	tier         *store.Store         // read-through store the folds swap segments into; nil = memory-resident
	retainBytes  int64                // Options.ShipRetain (resolved)
	onSeal       func(uint64)         // Options.OnSeal
	onRetainDrop func(string, Cursor) // Options.OnRetainDrop

	mu         sync.Mutex
	cond       *sync.Cond
	buf        []byte // framed records appended but not yet handed to the flusher
	spare      []byte // recycled flush buffer
	appended   uint64 // records appended (commit tickets)
	durable    uint64 // records known flushed (and fsynced, in FsyncAlways)
	flushing   bool   // a flusher is writing outside the lock
	compacting bool   // a compaction is running outside the lock
	err        error  // latched IO error; the log is read-only garbage after
	closed     bool
	f          *os.File          // active WAL file
	seq        uint64            // active WAL sequence number
	segSeq     uint64            // newest sealed segment (0 = none)
	reader     *SegmentReader    // read-through reader over segSeq (tier != nil only)
	sinceFold  int               // records in WAL files not yet folded into a segment
	compactErr string            // last compaction failure, for Stats
	durableOff int64             // committed byte size of the active WAL file
	pins       map[string]Cursor // push-cursor retention reservations (cursor.go)
	retained   map[uint64]int64  // folded WAL files kept for pins: seq -> size
}

// Put journals a descriptor admission or in-place version upgrade.
// Part of store.Journal; called under the store's write lock.
func (l *Log) Put(id store.ID, p store.Partition) {
	l.append(&Record{Op: OpPut, ID: id, Part: p})
}

// Evict journals a descriptor removal (capacity eviction or explicit
// delete). Part of store.Journal; called under the store's write lock.
func (l *Log) Evict(id store.ID, key string) {
	l.append(&Record{Op: OpEvict, ID: id, Key: key})
}

// DropArc journals the removal of every bucket on the ring arc
// (from, to]. Part of store.Journal; called under the store's write
// lock.
func (l *Log) DropArc(from, to store.ID) {
	l.append(&Record{Op: OpDropArc, From: from, To: to})
}

// Epoch returns the active WAL file's sequence number. Records appended
// now land in this file or a later one, so a fold up to sequence S
// covers every record appended while Epoch() <= S. Part of
// store.Journal: the tiered store stamps its pins and tombstones with
// this to know when a segment swap has absorbed them.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

func (l *Log) append(r *Record) {
	l.mu.Lock()
	if !l.closed {
		l.buf = AppendFramed(l.buf, r)
		l.appended++
		l.sinceFold++
	}
	l.mu.Unlock()
	metAppends.Inc()
}

// Commit blocks until every record appended before the call is durable,
// then reports the log's health. Part of store.Journal: peers reach it
// through Store.Commit. A non-nil return means durability was
// NOT achieved — the caller must not acknowledge the write. Concurrent
// commits coalesce: whichever caller finds no flush in progress becomes
// the flusher and its single write+fsync covers everyone waiting.
func (l *Log) Commit() error {
	metCommits.Inc()
	l.mu.Lock()
	target := l.appended
	for l.err == nil && l.durable < target {
		if !l.flushing {
			l.flushLocked()
			continue
		}
		l.cond.Wait()
	}
	err := l.err
	fold := err == nil && l.compactEvery > 0 && l.sinceFold >= l.compactEvery && !l.compacting
	if fold {
		l.compacting = true
	}
	l.mu.Unlock()
	if fold {
		l.runCompaction()
	}
	return err
}

// flushLocked swaps the append buffer out, writes and (in FsyncAlways)
// fsyncs it with the lock released, then publishes the new durable
// ticket and wakes all waiters. Caller holds l.mu; it is reacquired
// before returning.
func (l *Log) flushLocked() {
	l.flushing = true
	buf := l.buf
	l.buf = l.spare[:0]
	l.spare = nil
	target := l.appended
	f, mode := l.f, l.fsync
	l.mu.Unlock()

	var err error
	if len(buf) > 0 {
		_, err = f.Write(buf)
		metFlushBytes.Add(uint64(len(buf)))
	}
	if err == nil && mode == FsyncAlways {
		err = f.Sync()
		metFsyncs.Inc()
	}

	l.mu.Lock()
	l.flushing = false
	l.spare = buf[:0]
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("wal: flush %s: %w", f.Name(), err)
		}
	} else {
		if target > l.durable {
			l.durable = target
		}
		// Advance the shipping watermark: these bytes are now safe to
		// push to replicas. Rotation cannot interleave with a flush
		// (compaction drains first), so the offset tracks l.f.
		l.durableOff += int64(len(buf))
	}
	l.cond.Broadcast()
}

// drainLocked runs flushes until nothing is pending (or an error
// latches). Caller holds l.mu.
func (l *Log) drainLocked() {
	for l.err == nil && (l.durable < l.appended || l.flushing) {
		if !l.flushing {
			l.flushLocked()
			continue
		}
		l.cond.Wait()
	}
}

// Checkpoint folds all WAL records into a fresh segment now, regardless
// of the compaction threshold. Called on clean shutdown so the next
// boot recovers from the segment alone.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	for l.compacting {
		l.cond.Wait()
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.compacting = true
	l.mu.Unlock()
	return l.runCompaction()
}

// runCompaction rotates the active WAL and folds everything older into
// a new segment. Caller must have set l.compacting under l.mu; it is
// cleared here. Failures are non-fatal: the records stay replayable in
// the unfolded WAL files, so only the fold is retried later.
func (l *Log) runCompaction() error {
	err := l.compactOnce()
	l.mu.Lock()
	l.compacting = false
	if err != nil {
		l.compactErr = err.Error()
		metCompactErr.Inc()
	} else {
		l.compactErr = ""
		metCompacts.Inc()
	}
	// Reset the trigger either way — on failure the next threshold
	// crossing retries instead of every commit hammering a sick disk.
	l.sinceFold = 0
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

func (l *Log) compactOnce() error {
	// Rotate: drain pending appends into the current WAL, then start a
	// fresh one so the files being folded are immutable. Appends block
	// on l.mu only for the file creation — compaction's heavy IO runs
	// after release.
	l.mu.Lock()
	l.drainLocked()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	oldSeq, segSeq := l.seq, l.segSeq
	nf, err := createFile(walPath(l.dir, oldSeq+1), magicWAL, oldSeq+1)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	old := l.f
	l.f = nf
	l.seq = oldSeq + 1
	l.durableOff = headerLen(oldSeq + 1)
	l.mu.Unlock()

	// The rotated file must be fully on disk before folding reads it —
	// even in FsyncOff, so a fold never reads a stale page.
	if err := old.Sync(); err != nil {
		old.Close()
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	old.Close()
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// Fold segment segSeq plus WALs (segSeq, oldSeq] into a new sealed
	// segment at oldSeq, then retire the inputs. Every step is
	// crash-safe: the new segment appears atomically via rename, and
	// inputs are deleted only after it is durable.
	state, folded, err := foldFiles(l.dir, segSeq, oldSeq)
	if err != nil {
		return err
	}
	if err := writeSegment(l.dir, oldSeq, state); err != nil {
		return err
	}
	metFolded.Add(uint64(folded))

	// Read-through: hand the new segment to the store BEFORE deleting the
	// fold inputs, so there is never a moment where a descriptor is
	// neither in a reachable segment nor in a WAL file. The store's swap
	// is atomic under its own lock; the old reader is closed only after
	// nothing can route reads to it.
	if l.tier != nil {
		nr, err := OpenSegmentReader(l.dir, oldSeq)
		if err != nil {
			// Undo the segment write so state is exactly as if the fold
			// failed: inputs intact, no orphan segment, retried later.
			os.Remove(segPath(l.dir, oldSeq))
			return fmt.Errorf("wal: reopen segment %d: %w", oldSeq, err)
		}
		l.tier.SwapSegments(nr, oldSeq)
		l.mu.Lock()
		oldReader := l.reader
		l.reader = nr
		l.mu.Unlock()
		if oldReader != nil {
			oldReader.Close()
		}
	}

	var firstErr error
	if segSeq != 0 {
		if err := os.Remove(segPath(l.dir, segSeq)); err != nil && !os.IsNotExist(err) {
			firstErr = err
		}
	}
	// Retention: folded WAL files pinned by a push cursor survive the
	// fold (within the ShipRetain budget) so the pusher keeps reading
	// the same byte stream across the fold; the rest are deleted as
	// before. A pin the budget evicts sends its successor back to a
	// digest round — reported via OnRetainDrop.
	candidates := make(map[uint64]int64)
	for seq := segSeq + 1; seq <= oldSeq; seq++ {
		if fi, err := os.Stat(walPath(l.dir, seq)); err == nil {
			candidates[seq] = fi.Size()
		}
	}
	l.mu.Lock()
	// Publish the new segment before deleting its inputs: a shipping
	// reader that finds a WAL file missing classifies it by segSeq
	// (<= segSeq: folded away, cursor gone; > segSeq: never existed, skip),
	// so the flip must happen first.
	l.segSeq = oldSeq
	remove, dropped := l.retentionLocked(candidates)
	l.mu.Unlock()
	for _, seq := range remove {
		if err := os.Remove(walPath(l.dir, seq)); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	if err := syncDir(l.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	for name, c := range dropped {
		metRetainDrops.Inc()
		if l.onRetainDrop != nil {
			l.onRetainDrop(name, c)
		}
	}

	if l.onSeal != nil {
		l.onSeal(oldSeq)
	}
	return firstErr
}

// Close checkpoints (best effort) and closes the log. Appends and
// commits after Close return ErrClosed.
func (l *Log) Close() error {
	cerr := l.Checkpoint()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.drainLocked()
	if l.err != nil && cerr == nil {
		cerr = l.err
	}
	l.closed = true
	if l.err == nil {
		l.err = ErrClosed
	}
	f, r := l.f, l.reader
	l.f, l.reader = nil, nil
	l.cond.Broadcast()
	l.mu.Unlock()
	if f != nil {
		f.Close()
	}
	// The store may still hold this reader; closing it here (after the
	// serve path is down — Close is the last step of peer shutdown) turns
	// any straggling disk read into a counted error, not a wrong answer.
	if r != nil {
		r.Close()
	}
	return cerr
}

// Crash abandons the log without flushing buffered records — the test
// hook simulating kill -9 between append and commit. Anything already
// acknowledged (committed) is on disk; anything merely appended is
// lost, exactly as an unacknowledged write may be.
func (l *Log) Crash() {
	l.mu.Lock()
	for l.flushing || l.compacting {
		l.cond.Wait()
	}
	l.buf = nil
	l.closed = true
	if l.err == nil {
		l.err = ErrClosed
	}
	f, r := l.f, l.reader
	l.f, l.reader = nil, nil
	l.cond.Broadcast()
	l.mu.Unlock()
	if f != nil {
		f.Close()
	}
	if r != nil {
		r.Close()
	}
}

// Stats is a point-in-time durability summary, surfaced on /status.
type Stats struct {
	Dir           string `json:"dir"`
	Fsync         string `json:"fsync"`
	ActiveSeq     uint64 `json:"active_seq"`
	SegmentSeq    uint64 `json:"segment_seq"`
	Appended      uint64 `json:"appended"`
	Durable       uint64 `json:"durable"`
	SinceFold     int    `json:"since_fold"`
	RetainedBytes int64  `json:"retained_bytes,omitempty"`
	Pins          int    `json:"pins,omitempty"`
	Err           string `json:"err,omitempty"`
}

// Stats reports the log's current state.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Dir:        l.dir,
		Fsync:      l.fsync.String(),
		ActiveSeq:  l.seq,
		SegmentSeq: l.segSeq,
		Appended:   l.appended,
		Durable:    l.durable,
		SinceFold:  l.sinceFold,
		Pins:       len(l.pins),
	}
	for _, size := range l.retained {
		st.RetainedBytes += size
	}
	if l.err != nil && l.err != ErrClosed {
		st.Err = l.err.Error()
	} else if l.compactErr != "" {
		st.Err = "compaction: " + l.compactErr
	}
	return st
}

// File naming: wal-<seq>.log for append logs, seg-<seq>.seg for sealed
// segments, both carrying the sequence number again in their header so
// a renamed file cannot masquerade as another position in the order.

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016x.seg", seq))
}

// installFile is the one installer of a whole file (a sealed segment, a
// backup, a restore): data goes to a .tmp sibling of path, which is
// fsynced and renamed into place, then the directory is fsynced. A crash
// leaves the old directory or the new file, never a torn one; a failed
// step removes the .tmp and returns its error.
func installFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: install: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: install %s: %w", filepath.Base(path), err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("wal: sync dir: %w", serr)
	}
	return nil
}
