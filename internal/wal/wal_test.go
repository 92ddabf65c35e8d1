package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"p2prange/internal/rangeset"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

func testPart(i int) store.Partition {
	return store.Partition{
		Relation:  "R",
		Attribute: "a",
		Range:     rangeset.Range{Lo: int64(i), Hi: int64(i + 10)},
		Holder:    fmt.Sprintf("peer-%d:4000", i),
		Version:   uint64(i % 4),
		Origin:    fmt.Sprintf("origin-%d", i%3),
	}
}

// openStore opens (or recovers) a durable store in dir.
func openStore(t *testing.T, dir string, opt Options) (*store.Store, *Log, Recovery) {
	t.Helper()
	opt.Dir = dir
	st := store.New()
	lg, rec, err := Open(opt, st)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, lg, rec
}

// files lists dir's entries for assertions.
func files(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpPut, ID: 0xdeadbeef, Part: testPart(7)},
		{Op: OpPut, ID: 0, Part: store.Partition{Relation: "R", Attribute: "a",
			Range: rangeset.Range{Lo: -50, Hi: 50}}},
		{Op: OpEvict, ID: 42, Key: testPart(3).Key()},
		{Op: OpDropArc, From: 0xffffffff, To: 0},
		{Op: opSeal, Count: 12345},
	}
	for _, want := range recs {
		body := AppendRecord(nil, &want)
		got, err := ParseRecord(transport.NewCursor(body))
		if err != nil {
			t.Fatalf("ParseRecord(op %d): %v", want.Op, err)
		}
		if got != want {
			t.Errorf("round trip op %d: got %+v want %+v", want.Op, got, want)
		}
	}
}

func TestRecordRejectsGarbage(t *testing.T) {
	if _, err := ParseRecord(transport.NewCursor(nil)); err == nil {
		t.Error("empty body parsed")
	}
	if _, err := ParseRecord(transport.NewCursor([]byte{99})); err == nil {
		t.Error("unknown op parsed")
	}
	// Trailing garbage after a valid body must be rejected.
	body := AppendRecord(nil, &Record{Op: OpEvict, ID: 1, Key: "k"})
	if _, err := ParseRecord(transport.NewCursor(append(body, 0))); err == nil {
		t.Error("trailing byte accepted")
	}
	// Truncations of a valid body must error, never panic.
	body = AppendRecord(nil, &Record{Op: OpPut, ID: 9, Part: testPart(9)})
	for n := 0; n < len(body); n++ {
		if _, err := ParseRecord(transport.NewCursor(body[:n])); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestRecoverEmptyDirIsNewPeer(t *testing.T) {
	dir := t.TempDir()
	st, lg, rec := openStore(t, dir, Options{})
	defer lg.Close()
	if rec.SegmentSeq != 0 || rec.Replayed != 0 || rec.TornTail {
		t.Errorf("fresh dir recovery not empty: %+v", rec)
	}
	if st.Len() != 0 {
		t.Errorf("fresh store has %d descriptors", st.Len())
	}
}

func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{})
	for i := 0; i < 50; i++ {
		st.Put(uint32(i%10), testPart(i))
	}
	st.Delete(3, testPart(3).Key())
	if err := lg.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, lg2, rec := openStore(t, dir, Options{})
	defer lg2.Close()
	// Clean shutdown checkpoints, so recovery comes from a segment.
	if rec.SegmentSeq == 0 || rec.SegmentRecords != st.Len() {
		t.Errorf("recovery = %+v, want %d records from a segment", rec, st.Len())
	}
	if st2.Len() != st.Len() {
		t.Fatalf("recovered %d descriptors, want %d", st2.Len(), st.Len())
	}
	for i := 0; i < 50; i++ {
		p := testPart(i)
		got, ok := st2.Get(uint32(i%10), p.Key())
		if i == 3 {
			if ok {
				t.Errorf("deleted descriptor %d resurrected", i)
			}
			continue
		}
		if !ok {
			t.Errorf("descriptor %d missing after recovery", i)
		} else if got != p {
			t.Errorf("descriptor %d = %+v, want %+v (version/origin must survive)", i, got, p)
		}
	}
}

func TestRecoverVersionUpgradeSurvives(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{})
	p := testPart(1)
	p.Version = 1
	st.Put(5, p)
	p.Version = 7
	p.Holder = "upgraded:4000"
	st.Put(5, p) // in-place upgrade, journaled
	lg.Commit()
	lg.Crash()

	st2, lg2, _ := openStore(t, dir, Options{})
	defer lg2.Close()
	got, ok := st2.Get(5, p.Key())
	if !ok || got.Version != 7 || got.Holder != "upgraded:4000" {
		t.Errorf("recovered %+v ok=%v, want version 7 at upgraded holder", got, ok)
	}
}

func TestRecoverDropArc(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{})
	for i := 0; i < 20; i++ {
		st.Put(uint32(i*100), testPart(i))
	}
	// Drop the arc (500, 1500]: buckets 600..1500.
	st.ExtractArc(500, 1500)
	lg.Commit()
	lg.Crash()

	st2, lg2, _ := openStore(t, dir, Options{})
	defer lg2.Close()
	for i := 0; i < 20; i++ {
		id := uint32(i * 100)
		_, ok := st2.Get(id, testPart(i).Key())
		wantGone := id > 500 && id <= 1500
		if ok == wantGone {
			t.Errorf("bucket %d: present=%v after arc drop replay", id, ok)
		}
	}
}

// TestOpenReadThroughFollowsBound pins the one durable boot path: the
// store's bound alone decides whether the boot segment is loaded into
// memory or read through from disk, and Open journals none of its own
// replay.
func TestOpenReadThroughFollowsBound(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{CompactEvery: -1})
	const n = 40
	for i := 0; i < n; i++ {
		st.Put(store.ID(i%8), testPart(i))
	}
	if err := lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Put(99, testPart(n)) // a WAL tail above the segment
	if err := lg.Commit(); err != nil {
		t.Fatal(err)
	}
	lg.Crash()

	mem := store.New()
	lg1, rec, err := Open(Options{Dir: dir, CompactEvery: -1}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReadThrough || mem.Len() != n+1 || mem.MemLen() != mem.Len() {
		t.Fatalf("unbounded boot: read-through=%v Len=%d MemLen=%d, want false, %d, all resident",
			rec.ReadThrough, mem.Len(), mem.MemLen(), n+1)
	}
	if a := lg1.Stats().Appended; a != 0 {
		t.Errorf("unbounded boot journaled %d replayed record(s)", a)
	}
	lg1.Crash()

	capped := store.NewBounded(4)
	lg2, rec, err := Open(Options{Dir: dir, CompactEvery: -1}, capped)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if !rec.ReadThrough || capped.Len() != n+1 || capped.MemLen() != 1 {
		t.Fatalf("bounded boot: read-through=%v Len=%d MemLen=%d, want true, %d, only the WAL tail",
			rec.ReadThrough, capped.Len(), capped.MemLen(), n+1)
	}
	if a := lg2.Stats().Appended; a != 0 {
		t.Errorf("bounded boot journaled %d replayed record(s)", a)
	}
	cold := testPart(0)
	if m, ok := capped.FindBest(0, "R", "a", cold.Range, store.MatchJaccard, nil); !ok || m.Partition != cold {
		t.Fatalf("cold key from disk: %+v, %v", m, ok)
	}
	if capped.MemLen() != 2 {
		t.Errorf("MemLen = %d after a disk hit, want the hit admitted beside the tail", capped.MemLen())
	}
	// After Open the store is write-through: a new put is journaled.
	capped.Put(100, testPart(n+1))
	if a := lg2.Stats().Appended; a != 1 {
		t.Errorf("Appended = %d after one put, want 1", a)
	}
}

func TestCompactionFoldsAndRetiresFiles(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{CompactEvery: 10})
	for i := 0; i < 35; i++ {
		st.Put(uint32(i), testPart(i))
		if err := lg.Commit(); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	stats := lg.Stats()
	if stats.SegmentSeq == 0 {
		t.Fatalf("no segment after %d committed puts with CompactEvery=10: %+v\nfiles: %v",
			35, stats, files(t, dir))
	}
	// Folded WAL files must be gone; only the segment and the active WAL
	// (plus at most the unfolded tail) remain.
	var walFiles, segFiles int
	for _, name := range files(t, dir) {
		switch {
		case strings.HasSuffix(name, ".log"):
			walFiles++
		case strings.HasSuffix(name, ".seg"):
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Errorf("%d segment files, want exactly 1", segFiles)
	}
	if walFiles > 2 {
		t.Errorf("%d WAL files left after compaction, want <= 2", walFiles)
	}
	lg.Crash() // no checkpoint: recovery must use segment + WAL tail

	st2, lg2, rec := openStore(t, dir, Options{CompactEvery: 10})
	defer lg2.Close()
	if st2.Len() != 35 {
		t.Errorf("recovered %d descriptors, want 35 (recovery %+v)", st2.Len(), rec)
	}
	if rec.SegmentSeq == 0 {
		t.Errorf("recovery ignored the segment: %+v", rec)
	}
}

func TestCheckpointMakesRecoverySegmentOnly(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{})
	for i := 0; i < 12; i++ {
		st.Put(uint32(i), testPart(i))
	}
	lg.Commit()
	if err := lg.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	lg.Crash()

	_, lg2, rec := openStore(t, dir, Options{})
	defer lg2.Close()
	if rec.SegmentRecords != 12 || rec.Replayed != 0 {
		t.Errorf("post-checkpoint recovery = %+v, want 12 segment records, 0 replayed", rec)
	}
}

func TestFsyncOffStillRecovers(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{Fsync: FsyncOff})
	for i := 0; i < 8; i++ {
		st.Put(1, testPart(i))
	}
	if err := lg.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	lg.Crash() // process-crash model: pages written, never fsynced

	st2, lg2, _ := openStore(t, dir, Options{Fsync: FsyncOff})
	defer lg2.Close()
	if st2.Len() != 8 {
		t.Errorf("recovered %d, want 8", st2.Len())
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{})
	lg.Close()
	st.Put(1, testPart(1)) // silently unjournaled — store stays usable
	if err := lg.Commit(); err == nil {
		t.Error("Commit on closed log succeeded")
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{})
	defer lg.Close()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				st.Put(uint32(w), testPart(w*each+i))
				if err := lg.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Commit: %v", err)
	}
	stats := lg.Stats()
	if stats.Durable != stats.Appended || stats.Appended != writers*each {
		t.Errorf("stats %+v, want %d appended == durable", stats, writers*each)
	}
}

func TestStatsOnStatusFields(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{})
	defer lg.Close()
	st.Put(1, testPart(1))
	lg.Commit()
	s := lg.Stats()
	if s.Dir != dir || s.Fsync != "always" || s.ActiveSeq == 0 || s.Err != "" {
		t.Errorf("Stats = %+v", s)
	}
}

// TestEmptySegmentVerifiesClean pins the dataEnd == recStart boundary: a
// checkpoint of an empty store (the shape a graceful-leave handoff
// leaves behind) seals a segment with zero put records, and offline
// verification must accept its footer. Regression: parseFooter rejected
// dataEnd == recStart, so walctl verify flagged every post-handoff
// checkpoint as footer-damaged.
func TestEmptySegmentVerifiesClean(t *testing.T) {
	dir := t.TempDir()
	st, lg, _ := openStore(t, dir, Options{CompactEvery: -1})
	for i := 0; i < 3; i++ {
		st.Put(uint32(i), testPart(i))
	}
	st.ExtractArc(0, 0) // journaled whole-circle drop: the handoff shape
	if err := lg.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := lg.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rep, err := InspectDir(dir, nil)
	if err != nil {
		t.Fatalf("InspectDir: %v", err)
	}
	var sawSegment bool
	for _, f := range rep.Files {
		if f.Kind == "segment" {
			sawSegment = true
			if f.Records != 0 {
				t.Errorf("%s: %d records, want 0", f.Name, f.Records)
			}
		}
	}
	if !sawSegment {
		t.Fatal("checkpoint wrote no segment")
	}
	if !rep.Clean() {
		t.Fatalf("empty checkpoint reported damage: %+v", rep.Files)
	}
}

// TestBackupSegment pins the backup mirror (peerd -backup-to): nothing is
// copied before a segment is sealed; each call copies the newest sealed
// segment, verified, and prunes the older copies; a call that finds the
// verified copy in place copies nothing; and RestoreSegment from the
// backup directory recovers a store with the same content.
func TestBackupSegment(t *testing.T) {
	dir, bak := t.TempDir(), t.TempDir()
	st, lg, _ := openStore(t, dir, Options{})
	if seq, n, err := lg.BackupSegment(bak); err != nil || seq != 0 || n != 0 {
		t.Fatalf("backup before any seal = seq %d, %d bytes, %v; want nothing", seq, n, err)
	}
	seal := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			st.Put(uint32(i), testPart(i))
		}
		if err := lg.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := lg.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	backup := func() (uint64, int64) {
		t.Helper()
		seq, n, err := lg.BackupSegment(bak)
		if err != nil {
			t.Fatalf("BackupSegment: %v", err)
		}
		return seq, n
	}

	seal(0, 20)
	first, n := backup()
	if fi, err := os.Stat(segPath(bak, first)); err != nil || fi.Size() != n || n == 0 {
		t.Fatalf("first backup: segment %d, %d bytes copied, stat %v", first, n, err)
	}
	seal(20, 35)
	second, n := backup()
	if second <= first || n == 0 {
		t.Fatalf("second backup = segment %d (%d bytes), want one newer than %d", second, n, first)
	}
	if got, want := files(t, bak), []string{filepath.Base(segPath(bak, second))}; !reflect.DeepEqual(got, want) {
		t.Errorf("backup dir = %v, want only %v (older copy pruned)", got, want)
	}
	if seq, n := backup(); seq != second || n != 0 {
		t.Errorf("repeat backup = segment %d, %d bytes copied; want %d and 0", seq, n, second)
	}

	want := dumpStore(st)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	restored := t.TempDir()
	seq, recs, err := RestoreSegment(bak, restored)
	if err != nil || seq != second || recs != 35 {
		t.Fatalf("RestoreSegment = segment %d, %d records, %v; want %d, 35", seq, recs, err, second)
	}
	st2, lg2, _ := openStore(t, restored, Options{})
	defer lg2.Close()
	if got := dumpStore(st2); !reflect.DeepEqual(got, want) {
		t.Errorf("restored store differs: %d buckets, want %d", len(got), len(want))
	}
}

// TestReadersLeaveDirAlone: InspectDir and RestoreSegment only read the
// directory they are handed, which may be a live peer's backup mirror
// whose writer is about to rename a .tmp into place; and a restore from
// a directory takes the newest segment that verifies, not just the
// newest file.
func TestReadersLeaveDirAlone(t *testing.T) {
	src := t.TempDir()
	st, lg, _ := openStore(t, src, Options{})
	for i := 0; i < 12; i++ {
		st.Put(uint32(i), testPart(i))
	}
	if err := lg.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	_, segSeqs, err := scanDir(src)
	if err != nil || len(segSeqs) != 1 {
		t.Fatalf("closed log left segments %v (%v), want one", segSeqs, err)
	}
	seq := segSeqs[0]
	good, err := os.ReadFile(segPath(src, seq))
	if err != nil {
		t.Fatal(err)
	}
	goodName := filepath.Base(segPath(src, seq))
	newer := filepath.Base(segPath(src, seq+5))
	tmpName := newer + ".tmp"

	inspect := func(dir string) (uint64, error) {
		_, err := InspectDir(dir, nil)
		return 0, err
	}
	restore := func(dir string) (uint64, error) {
		got, recs, err := RestoreSegment(dir, t.TempDir())
		if err == nil && recs != 12 {
			err = fmt.Errorf("restored %d records, want 12", recs)
		}
		return got, err
	}
	for _, tc := range []struct {
		name    string
		files   map[string][]byte
		op      func(dir string) (uint64, error)
		wantSeq uint64 // 0: the op reports no segment
		wantErr bool
	}{
		{"inspect keeps a writer's temp", map[string][]byte{goodName: good, tmpName: good[:len(good)/2]}, inspect, 0, false},
		{"restore keeps a writer's temp", map[string][]byte{goodName: good, tmpName: good[:len(good)/2]}, restore, seq, false},
		{"restore skips a garbage newest segment", map[string][]byte{goodName: good, newer: []byte("garbage")}, restore, seq, false},
		{"restore skips a torn newest segment", map[string][]byte{goodName: good, newer: good[:len(good)/2]}, restore, seq, false},
		{"restore fails with no valid segment", map[string][]byte{newer: []byte("garbage")}, restore, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := files(t, dir)
			got, err := tc.op(dir)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if got != tc.wantSeq {
				t.Errorf("segment %d, want %d", got, tc.wantSeq)
			}
			if after := files(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("directory changed: %v, was %v", after, before)
			}
		})
	}
}
