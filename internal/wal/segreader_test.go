package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"p2prange/internal/chord"
	"p2prange/internal/store"
)

// Segment read-path suite: the reader must serve exactly what loadSegment
// would materialize, from any entry point (point read, bucket walk, arc
// scan), and footer damage at any byte offset must degrade to a full-scan
// rebuild — slower, never wrong.

// seedSegment builds one sealed segment holding n descriptors spread over
// the 32-bit id space (plus a few multi-descriptor buckets) and returns
// the directory and the exact expected content.
func seedSegment(tb testing.TB, n int) (string, map[store.ID][]store.Partition) {
	tb.Helper()
	dir := tb.TempDir()
	st := store.New()
	lg, _, err := Open(Options{Dir: dir}, st)
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	want := make(map[store.ID][]store.Partition)
	for i := 0; i < n; i++ {
		id := store.ID(uint32(i) * 2654435761) // Knuth spread over the ring
		p := testPart(i)
		st.Put(id, p)
		want[id] = append(want[id], p)
		if i%7 == 0 {
			q := testPart(100000 + i)
			st.Put(id, q)
			want[id] = append(want[id], q)
		}
	}
	if err := lg.Commit(); err != nil {
		tb.Fatalf("Commit: %v", err)
	}
	if err := lg.Checkpoint(); err != nil {
		tb.Fatalf("Checkpoint: %v", err)
	}
	lg.Crash()
	for id := range want {
		b := want[id]
		sort.Slice(b, func(i, j int) bool { return b[i].Key() < b[j].Key() })
	}
	return dir, want
}

// scanAll collects the reader's full content as a map for comparison.
func scanAll(tb testing.TB, r *SegmentReader) map[store.ID][]store.Partition {
	tb.Helper()
	got := make(map[store.ID][]store.Partition)
	if err := r.Scan(func(id store.ID, p store.Partition) error {
		got[id] = append(got[id], p)
		return nil
	}); err != nil {
		tb.Fatalf("Scan: %v", err)
	}
	return got
}

func TestSegmentReaderMatchesSeededContent(t *testing.T) {
	dir, want := seedSegment(t, 40)
	r, err := OpenSegmentReader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rebuilt() {
		t.Error("pristine segment reported a rebuilt index")
	}
	total := 0
	for _, b := range want {
		total += len(b)
	}
	if r.Len() != total {
		t.Errorf("Len = %d, want %d", r.Len(), total)
	}

	if got := scanAll(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("Scan mismatch: %d buckets, want %d", len(got), len(want))
	}

	for id, bucket := range want {
		var got []store.Partition
		if err := r.Bucket(id, func(p store.Partition) error {
			got = append(got, p)
			return nil
		}); err != nil {
			t.Fatalf("Bucket(%08x): %v", id, err)
		}
		if !reflect.DeepEqual(got, bucket) {
			t.Errorf("Bucket(%08x) = %v, want %v", id, got, bucket)
		}
		for _, p := range bucket {
			if !r.MayContainKey(id, p.Key()) {
				t.Errorf("MayContainKey(%08x, %s) = false for a present key", id, p.Key())
			}
			q, ok, err := r.Get(id, p.Key())
			if err != nil || !ok {
				t.Fatalf("Get(%08x, %s) = %v, %v", id, p.Key(), ok, err)
			}
			if q != p {
				t.Errorf("Get(%08x, %s) = %+v, want %+v", id, p.Key(), q, p)
			}
		}
		if _, ok, err := r.Get(id, "Nope.x[1,2]"); err != nil || ok {
			t.Errorf("Get of absent key in present bucket = %v, %v", ok, err)
		}
	}
}

func TestSegmentReaderScanArc(t *testing.T) {
	dir, want := seedSegment(t, 40)
	r, err := OpenSegmentReader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var ids []store.ID
	for id := range want {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	arcs := [][2]store.ID{
		{0, 0},                    // whole circle (from == to on an unoccupied id)
		{ids[3], ids[3]},          // whole circle from an occupied id
		{ids[2], ids[len(ids)-2]}, // plain ascending arc
		{ids[len(ids)-2], ids[2]}, // wrapping arc
		{ids[5], ids[5] + 1},      // near-empty arc
		{^store.ID(0) - 1, 1},     // wrap across zero
		{ids[0], ids[0] - 1},      // everything except the first id
	}
	for _, arc := range arcs {
		from, to := arc[0], arc[1]
		exp := make(map[store.ID][]store.Partition)
		for id, b := range want {
			if from == to || chord.BetweenRightIncl(from, to, id) {
				exp[id] = b
			}
		}
		got := make(map[store.ID][]store.Partition)
		if err := r.ScanArc(from, to, func(id store.ID, p store.Partition) error {
			got[id] = append(got[id], p)
			return nil
		}); err != nil {
			t.Fatalf("ScanArc(%08x, %08x): %v", from, to, err)
		}
		if len(got) == 0 {
			got = map[store.ID][]store.Partition{}
		}
		if len(exp) == 0 {
			exp = map[store.ID][]store.Partition{}
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("ScanArc(%08x, %08x): %d buckets, want %d", from, to, len(got), len(exp))
		}
	}
}

// TestSegmentBucketAcrossIndexStride pins where a bucket walk starts:
// a bucket holding more descriptors than the index stride owns several
// index entries, and its first records lie before the last of them. A
// walk that starts at the last entry holding the id misses every record
// of the bucket before that entry.
func TestSegmentBucketAcrossIndexStride(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	lg, _, err := Open(Options{Dir: dir}, st)
	if err != nil {
		t.Fatal(err)
	}
	const big, n = store.ID(7), 2*segIndexEvery + 5
	st.Put(big-1, testPart(-1))
	for i := 0; i < n; i++ {
		st.Put(big, testPart(i))
	}
	st.Put(big+1, testPart(-2))
	if err := lg.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lg.Crash()
	r, err := OpenSegmentReader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.idx.entries) < 3 {
		t.Fatalf("%d index entries, want the bucket to span several", len(r.idx.entries))
	}
	got := 0
	if err := r.Bucket(big, func(store.Partition) error { got++; return nil }); err != nil || got != n {
		t.Errorf("Bucket = %d descriptors, %v; want %d", got, err, n)
	}
	for i := 0; i < n; i++ {
		if _, ok, err := r.Get(big, testPart(i).Key()); err != nil || !ok {
			t.Fatalf("Get(%d, %s) = %v, %v", big, testPart(i).Key(), ok, err)
		}
	}
	got = 0
	if err := r.ScanArc(big-1, big, func(store.ID, store.Partition) error { got++; return nil }); err != nil || got != n {
		t.Errorf("ScanArc = %d descriptors, %v; want %d", got, err, n)
	}
}

// segmentGeometry reads the pristine segment's byte layout: where the
// data region ends (the seal record's offset) and where the footer
// begins (the seal record's end).
func segmentGeometry(t *testing.T, dir string) (path string, pristine []byte, dataEnd, sealEnd int64) {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	path = segs[0]
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegmentReader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	dataEnd = r.idx.dataEnd
	r.Close()
	sealEnd = int64(binary.LittleEndian.Uint64(pristine[len(pristine)-segTrailerLen:]))
	if dataEnd <= 0 || sealEnd <= dataEnd || sealEnd >= int64(len(pristine)) {
		t.Fatalf("implausible geometry: dataEnd=%d sealEnd=%d size=%d", dataEnd, sealEnd, len(pristine))
	}
	return path, pristine, dataEnd, sealEnd
}

// verifyAgreesWithOpen pins "footer valid" to one definition: walctl
// verify (InspectDir) reports a damaged record stream exactly when
// OpenSegmentReader rejects the segment, and a damaged footer exactly
// when the open had to rebuild the index.
func verifyAgreesWithOpen(t *testing.T, dir string, r *SegmentReader, openErr error) {
	t.Helper()
	rep, err := InspectDir(dir, nil)
	if err != nil || len(rep.Files) != 1 {
		t.Fatalf("InspectDir = %+v, %v; want one file", rep.Files, err)
	}
	fr := rep.Files[0]
	if (fr.Damage == "") != (openErr == nil) {
		t.Fatalf("%s: verify damage %q, open error %v", fr.Name, fr.Damage, openErr)
	}
	if openErr == nil && (fr.FooterDamage == "") != !r.Rebuilt() {
		t.Fatalf("%s: verify footer damage %q, open rebuilt %v", fr.Name, fr.FooterDamage, r.Rebuilt())
	}
}

// TestSegmentFooterTruncateEveryOffset cuts the segment at every byte
// offset from the seal record to EOF. A cut inside the seal must reject
// the segment (the commit point is gone); a cut at or past the seal's end
// only damages the footer, so the reader must open via a full-scan
// rebuild and answer byte-identically. No cut may ever yield a wrong
// answer.
func TestSegmentFooterTruncateEveryOffset(t *testing.T) {
	dir, want := seedSegment(t, 30)
	path, pristine, dataEnd, sealEnd := segmentGeometry(t, dir)

	for cut := dataEnd; cut < int64(len(pristine)); cut++ {
		workDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(workDir, filepath.Base(path)), pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenSegmentReader(workDir, 1)
		verifyAgreesWithOpen(t, workDir, r, err)
		if cut < sealEnd {
			if err == nil {
				r.Close()
				t.Fatalf("cut at %d (inside seal): reader accepted an unsealed segment", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d (footer only): open failed: %v", cut, err)
		}
		if !r.Rebuilt() {
			t.Errorf("cut at %d: damaged footer not rebuilt", cut)
		}
		if got := scanAll(t, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: rebuilt reader content differs", cut)
		}
		r.Close()
	}
}

// TestSegmentFooterBitFlipEveryOffset flips one byte at every offset from
// the seal record to EOF. Flips inside the seal break the commit point
// (the segment must be rejected); flips in the footer or trailer must
// fall back to the rebuild and answer byte-identically.
func TestSegmentFooterBitFlipEveryOffset(t *testing.T) {
	dir, want := seedSegment(t, 30)
	path, pristine, dataEnd, sealEnd := segmentGeometry(t, dir)

	for pos := dataEnd; pos < int64(len(pristine)); pos++ {
		workDir := t.TempDir()
		mut := append([]byte(nil), pristine...)
		mut[pos] ^= 0x41
		if err := os.WriteFile(filepath.Join(workDir, filepath.Base(path)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenSegmentReader(workDir, 1)
		verifyAgreesWithOpen(t, workDir, r, err)
		if pos < sealEnd {
			if err == nil {
				r.Close()
				t.Fatalf("flip at %d (inside seal): reader accepted a damaged seal", pos)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip at %d (footer only): open failed: %v", pos, err)
		}
		if !r.Rebuilt() {
			t.Errorf("flip at %d: damaged footer not rebuilt", pos)
		}
		if got := scanAll(t, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("flip at %d: rebuilt reader content differs", pos)
		}
		r.Close()
	}
}

// TestSegmentRebuiltIndexMatchesFooter opens the same segment via the
// footer and via a forced rebuild and compares the indexes they serve
// from: same count, same seal offset, same sparse entries, same key and
// id bloom bits.
func TestSegmentRebuiltIndexMatchesFooter(t *testing.T) {
	dir, _ := seedSegment(t, 200) // > segIndexEvery so the index has several entries
	r, err := OpenSegmentReader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rebuilt, err := r.rebuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.count != r.idx.count || rebuilt.dataEnd != r.idx.dataEnd {
		t.Errorf("rebuild: count/dataEnd %d/%d, footer %d/%d",
			rebuilt.count, rebuilt.dataEnd, r.idx.count, r.idx.dataEnd)
	}
	if !reflect.DeepEqual(rebuilt.entries, r.idx.entries) {
		t.Errorf("rebuild: %d index entries, footer %d", len(rebuilt.entries), len(r.idx.entries))
	}
	if !reflect.DeepEqual(rebuilt.keys, r.idx.keys) {
		t.Errorf("rebuild: key bloom differs from the footer's")
	}
	if !reflect.DeepEqual(rebuilt.ids, r.idx.ids) {
		t.Errorf("rebuild: id bloom differs from the footer's")
	}
}

func BenchmarkSegmentProbe(b *testing.B) {
	dir, want := seedSegment(b, 2000)
	r, err := OpenSegmentReader(dir, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var id store.ID
	var key string
	for i, bucket := range want {
		id, key = i, bucket[0].Key()
		break
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := r.find(id, key, nil)
		if err != nil || !ok {
			b.Fatalf("probe: %v, %v", ok, err)
		}
	}
}

func BenchmarkSegmentProbeMiss(b *testing.B) {
	dir, _ := seedSegment(b, 2000)
	r, err := OpenSegmentReader(dir, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := r.find(0xdeadbeef, "Absent.x[1,2]", nil)
		if err != nil || ok {
			b.Fatalf("miss probe: %v, %v", ok, err)
		}
	}
}

func BenchmarkSegmentGetIndexed(b *testing.B) {
	benchmarkSegmentGet(b, true)
}

func BenchmarkSegmentGetFullScan(b *testing.B) {
	benchmarkSegmentGet(b, false)
}

// benchmarkSegmentGet measures a materializing point read with and
// without the sparse index (the without case walks from the top of the
// file, what every read cost before the footer existed).
func benchmarkSegmentGet(b *testing.B, indexed bool) {
	dir, want := seedSegment(b, 2000)
	r, err := OpenSegmentReader(dir, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if !indexed {
		stripped := *r.idx
		stripped.entries = nil
		r = &SegmentReader{f: r.f, path: r.path, size: r.size, recStart: r.recStart, idx: &stripped}
	}
	// Probe the id at the 90th percentile of the file so the unindexed
	// walk pays a realistic scan distance.
	var ids []store.ID
	for id := range want {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	id := ids[len(ids)*9/10]
	key := want[id][0].Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := r.Get(id, key)
		if err != nil || !ok {
			b.Fatalf("get: %v, %v", ok, err)
		}
	}
}

// TestReadThroughBootRejectsDamagedRecords flips every byte of a small
// segment's record region, from its first record up to the seal, and
// boots a bounded (read-through) store over each copy. The footer still
// validates, since it vouches only for the seal, so only boot's walk of
// the record stream can see the damage: the segment must be rejected
// whole, as the memory boot rejects it. The walk reads the file directly,
// so it does not count as segment read traffic.
func TestReadThroughBootRejectsDamagedRecords(t *testing.T) {
	dir, _ := seedSegment(t, 6)
	path, pristine, dataEnd, _ := segmentGeometry(t, dir)
	r, err := OpenSegmentReader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	recStart := r.recStart
	r.Close()

	boot := func(data []byte) Recovery {
		t.Helper()
		workDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(workDir, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		lg, rec, err := Open(Options{Dir: workDir}, store.NewBounded(4))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		lg.Close()
		return rec
	}
	readBytes := metSegReadBytes.Value()
	if rec := boot(pristine); rec.BadSegments != 0 || rec.SegmentSeq != 1 || !rec.ReadThrough || rec.IndexRebuilt {
		t.Fatalf("pristine segment: %+v, want it adopted through its footer", rec)
	}
	if got := metSegReadBytes.Value() - readBytes; got != 0 {
		t.Errorf("boot's record walk counted %d segment read bytes, want 0", got)
	}
	for pos := recStart; pos < dataEnd; pos++ {
		mut := append([]byte(nil), pristine...)
		mut[pos] ^= 0x41
		if rec := boot(mut); rec.BadSegments != 1 || rec.SegmentSeq != 0 {
			t.Fatalf("flip at %d of records [%d,%d): %+v, want the segment rejected", pos, recStart, dataEnd, rec)
		}
	}
}
