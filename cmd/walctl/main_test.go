package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p2prange/internal/store"
	"p2prange/internal/wal"
)

// writeDir builds a data directory with a sealed segment and a live WAL
// tail — the shape a stopped peer leaves behind.
func writeDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st := store.New()
	lg, _, err := wal.Open(wal.Options{Dir: dir, CompactEvery: -1}, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := store.Partition{Relation: "R", Attribute: "a", Holder: "h:1", Version: 1, Origin: "o:1"}
		p.Range.Lo, p.Range.Hi = int64(i), int64(i+10)
		st.Put(store.ID(i), p)
	}
	if err := lg.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lg.Evict(3, "R|a")
	if err := lg.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestWalctlVerifyAndDump(t *testing.T) {
	dir := writeDir(t)
	if code := runVerify([]string{dir}); code != 0 {
		t.Fatalf("verify of a clean dir exited %d", code)
	}
	if code := runDump([]string{dir}); code != 0 {
		t.Fatalf("dump exited %d", code)
	}

	// Flip one byte mid-file: verify must fail, dump must still run.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment written: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runVerify([]string{dir}); code != 1 {
		t.Fatalf("verify of a damaged dir exited %d, want 1", code)
	}
	if code := runDump([]string{dir}); code != 0 {
		t.Fatalf("dump of a damaged dir exited %d, want 0 (dump reports, never fails)", code)
	}
}

func TestWalctlRestore(t *testing.T) {
	src := writeDir(t)
	dst := filepath.Join(t.TempDir(), "restored")
	if code := runRestore([]string{"-from", src, "-to", dst}); code != 0 {
		t.Fatalf("restore exited %d", code)
	}
	if code := runVerify([]string{dst}); code != 0 {
		t.Fatalf("verify of restored dir exited %d", code)
	}
	// Restored dir must boot: recovery sees the segment as its own fold.
	st := store.New()
	lg, _, err := wal.Open(wal.Options{Dir: dst, CompactEvery: -1}, st)
	if err != nil {
		t.Fatalf("restored dir failed recovery: %v", err)
	}
	defer lg.Close()
	if got := len(st.Digest(nil)); got == 0 {
		t.Fatal("restored store is empty")
	}
	// A second restore into the now non-empty dir must refuse.
	if code := runRestore([]string{"-from", src, "-to", dst}); code != 1 {
		t.Fatalf("restore into non-empty dir exited %d, want 1", code)
	}
}

func TestWalctlUsageErrors(t *testing.T) {
	if code := runVerify([]string{}); code != 2 {
		t.Fatalf("verify with no dir exited %d, want 2", code)
	}
	if code := runRestore([]string{"-from", "x"}); code != 2 {
		t.Fatalf("restore without -to exited %d, want 2", code)
	}
	if code := runVerify([]string{filepath.Join(t.TempDir(), "absent")}); code == 0 {
		t.Fatal("verify of a missing dir exited 0")
	}
}

func TestFormatRecordCoversOps(t *testing.T) {
	r := wal.Record{Op: wal.OpPut, ID: 7}
	r.Part = store.Partition{Relation: "R", Attribute: "a", Holder: "h", Version: 2, Origin: "o"}
	if s := formatRecord(r); !strings.Contains(s, "put id=7") {
		t.Fatalf("put formatting: %q", s)
	}
	if s := formatRecord(wal.Record{Op: wal.OpEvict, ID: 1, Key: "k"}); !strings.Contains(s, "evict") {
		t.Fatalf("evict formatting: %q", s)
	}
	if s := formatRecord(wal.Record{Op: wal.OpDropArc, From: 1, To: 2}); !strings.Contains(s, "drop-arc") {
		t.Fatalf("drop-arc formatting: %q", s)
	}
}
