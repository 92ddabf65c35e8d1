package store

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"p2prange/internal/chord"
	"p2prange/internal/rangeset"
)

// Two-tier store suite, driven by an in-memory fake of the segment tier
// so the overlay semantics (read-through, pins, tombstones, swaps) are
// tested in isolation from the WAL's on-disk format. The wal package has
// the end-to-end equivalence test against real segments.

// fakeSeg is an in-memory SegmentSource.
type fakeSeg struct {
	m     map[ID][]Partition
	count int
}

func newFakeSeg(m map[ID][]Partition) *fakeSeg {
	f := &fakeSeg{m: make(map[ID][]Partition, len(m))}
	for id, bucket := range m {
		b := append([]Partition(nil), bucket...)
		sort.Slice(b, func(i, j int) bool { return b[i].Key() < b[j].Key() })
		f.m[id] = b
		f.count += len(b)
	}
	return f
}

func (f *fakeSeg) Len() int              { return f.count }
func (f *fakeSeg) MayContain(id ID) bool { _, ok := f.m[id]; return ok }

func (f *fakeSeg) MayContainKey(id ID, key string) bool {
	for _, p := range f.m[id] {
		if p.Key() == key {
			return true
		}
	}
	return false
}

func (f *fakeSeg) Get(id ID, key string) (Partition, bool, error) {
	for _, p := range f.m[id] {
		if p.Key() == key {
			return p, true, nil
		}
	}
	return Partition{}, false, nil
}

func (f *fakeSeg) Bucket(id ID, fn func(Partition) error) error {
	for _, p := range f.m[id] {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeSeg) Scan(fn func(ID, Partition) error) error {
	ids := make([]ID, 0, len(f.m))
	for id := range f.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, p := range f.m[id] {
			if err := fn(id, p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *fakeSeg) ScanArc(from, to ID, fn func(ID, Partition) error) error {
	return f.Scan(func(id ID, p Partition) error {
		if from != to && !chord.BetweenRightIncl(from, to, id) {
			return nil
		}
		return fn(id, p)
	})
}

// epochJournal counts journal traffic and serves a controllable epoch
// and commit result.
type epochJournal struct {
	puts, evicts, arcs, commits int
	epoch                       uint64
	commitErr                   error
}

func (j *epochJournal) Put(ID, Partition) { j.puts++ }
func (j *epochJournal) Evict(ID, string)  { j.evicts++ }
func (j *epochJournal) DropArc(ID, ID)    { j.arcs++ }
func (j *epochJournal) Epoch() uint64     { return j.epoch }
func (j *epochJournal) Commit() error     { j.commits++; return j.commitErr }

// segPart builds distinguishable descriptors for the fake segment.
func segPart(i int) Partition {
	return Partition{Relation: "R", Attribute: "a",
		Range: rangeset.Range{Lo: int64(i * 100), Hi: int64(i*100 + 50)}, Holder: fmt.Sprintf("d%d", i)}
}

// fiveOnDisk returns a bounded tiered store whose segment holds
// descriptors 0..4 in buckets 10,20,..,50, with nothing resident.
func fiveOnDisk(cap int) (*Store, *fakeSeg, *epochJournal) {
	seg := newFakeSeg(map[ID][]Partition{
		10: {segPart(0)}, 20: {segPart(1)}, 30: {segPart(2)}, 40: {segPart(3)}, 50: {segPart(4)},
	})
	s := NewBounded(cap)
	j := &epochJournal{epoch: 1}
	s.SetJournal(j)
	s.SetSegments(seg)
	return s, seg, j
}

func TestTieredReadThroughAdmits(t *testing.T) {
	s, _, _ := fiveOnDisk(2)
	if s.Len() != 5 || s.MemLen() != 0 {
		t.Fatalf("Len=%d MemLen=%d, want 5, 0", s.Len(), s.MemLen())
	}
	q := rangeset.Range{Lo: 100, Hi: 150}
	m, ok := s.FindBest(20, "R", "a", q, MatchJaccard, nil)
	if !ok || m.Partition != segPart(1) {
		t.Fatalf("FindBest from disk = %+v, %v", m, ok)
	}
	if s.MemLen() != 1 {
		t.Errorf("disk hit not admitted: MemLen=%d", s.MemLen())
	}
	if s.Len() != 5 {
		t.Errorf("admission changed Len to %d", s.Len())
	}
	// Admissions beyond capacity evict silently; the logical set is intact.
	for _, probe := range []struct {
		id ID
		i  int
	}{{10, 0}, {30, 2}, {40, 3}, {50, 4}} {
		qq := segPart(probe.i).Range
		if m, ok := s.FindBest(probe.id, "R", "a", qq, MatchJaccard, nil); !ok || m.Partition != segPart(probe.i) {
			t.Fatalf("FindBest(%d) = %+v, %v", probe.id, m, ok)
		}
	}
	if s.MemLen() > 2 {
		t.Errorf("cache exceeded capacity: MemLen=%d", s.MemLen())
	}
	if s.Len() != 5 {
		t.Errorf("Len drifted to %d after cache churn", s.Len())
	}
}

func TestTieredGetHasBucketMerge(t *testing.T) {
	s, _, _ := fiveOnDisk(2)
	if p, ok := s.Get(30, segPart(2).Key()); !ok || p != segPart(2) {
		t.Errorf("Get(30) = %+v, %v", p, ok)
	}
	if !s.Has(40, segPart(3)) {
		t.Error("Has missed a disk descriptor")
	}
	if got := s.Bucket(50); len(got) != 1 || got[0] != segPart(4) {
		t.Errorf("Bucket(50) = %v", got)
	}
	// A resident copy wins over the segment copy of the same identity.
	newer := segPart(4)
	newer.Version = 7
	s.Put(50, newer)
	if got := s.Bucket(50); len(got) != 1 || got[0].Version != 7 {
		t.Errorf("Bucket(50) after upgrade = %v", got)
	}
	if p, _ := s.Get(50, newer.Key()); p.Version != 7 {
		t.Errorf("Get(50) returned the stale tier: %+v", p)
	}
}

func TestTieredPutAgainstDisk(t *testing.T) {
	s, _, j := fiveOnDisk(10)
	// Same identity, same version: a duplicate even though not resident.
	if s.Put(10, segPart(0)) {
		t.Error("Put of a disk-resident identity reported new")
	}
	if s.Len() != 5 {
		t.Errorf("duplicate put changed Len to %d", s.Len())
	}
	// Strictly newer version: an upgrade, stored and journaled, not new.
	up := segPart(0)
	up.Version = 3
	if s.Put(10, up) {
		t.Error("version upgrade reported new")
	}
	if j.puts != 1 {
		t.Errorf("upgrade journaled %d puts, want 1", j.puts)
	}
	if s.Len() != 5 {
		t.Errorf("upgrade changed Len to %d", s.Len())
	}
	// A genuinely new descriptor grows the logical set.
	if !s.Put(60, segPart(9)) {
		t.Error("new descriptor not reported new")
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
}

func TestTieredPinsSurviveEviction(t *testing.T) {
	s, seg, j := fiveOnDisk(2)
	// Three new puts on a cap-2 store: all journaled since the seal, so
	// none may be evicted — memory overshoots rather than losing them.
	for i := 5; i < 8; i++ {
		s.Put(ID(100+i), segPart(i))
	}
	if s.MemLen() != 3 {
		t.Fatalf("MemLen = %d, want 3 (pins are not evictable)", s.MemLen())
	}
	if j.puts != 3 {
		t.Fatalf("journaled %d puts, want 3", j.puts)
	}
	// After the fold covers them (epoch 1 <= upto), they join the LRU and
	// the cache trims back to capacity — without journaling the trims.
	merged := map[ID][]Partition{}
	for id, b := range seg.m {
		merged[id] = b
	}
	for i := 5; i < 8; i++ {
		merged[ID(100+i)] = []Partition{segPart(i)}
	}
	s.SwapSegments(newFakeSeg(merged), 1)
	if s.MemLen() != 2 {
		t.Errorf("MemLen = %d after swap, want cap 2", s.MemLen())
	}
	if j.evicts != 0 {
		t.Errorf("silent trims journaled %d evicts", j.evicts)
	}
	// Everything is still readable through the new segment.
	for i := 5; i < 8; i++ {
		if p, ok := s.Get(ID(100+i), segPart(i).Key()); !ok || p != segPart(i) {
			t.Errorf("Get(%d) after swap = %+v, %v", 100+i, p, ok)
		}
	}
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
}

func TestTieredPinAboveSwapEpochStaysPinned(t *testing.T) {
	s, seg, j := fiveOnDisk(1)
	j.epoch = 5
	s.Put(200, segPart(7)) // stamped epoch 5: the fold at 4 does not cover it
	s.SwapSegments(seg, 4)
	if s.MemLen() != 1 {
		t.Fatalf("MemLen = %d, want the pinned entry resident", s.MemLen())
	}
	// Fill the cache with disk admissions; the pin must never be the victim.
	for _, probe := range []struct {
		id ID
		i  int
	}{{10, 0}, {20, 1}, {30, 2}} {
		s.FindBest(probe.id, "R", "a", segPart(probe.i).Range, MatchJaccard, nil)
	}
	if p, ok := s.Get(200, segPart(7).Key()); !ok || p != segPart(7) {
		t.Fatalf("pinned entry lost to cache churn: %+v, %v", p, ok)
	}
}

func TestTieredDeleteTombstones(t *testing.T) {
	s, _, j := fiveOnDisk(2)
	// Deleting a never-resident descriptor must still journal an evict,
	// mask the disk copy, and shrink the logical set.
	if !s.Delete(30, segPart(2).Key()) {
		t.Fatal("Delete of a disk-only descriptor reported absent")
	}
	if j.evicts != 1 {
		t.Errorf("journaled %d evicts, want 1", j.evicts)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	if _, ok := s.Get(30, segPart(2).Key()); ok {
		t.Error("deleted descriptor still served from disk")
	}
	if _, ok := s.FindBest(30, "R", "a", segPart(2).Range, MatchJaccard, nil); ok {
		t.Error("deleted descriptor still matches")
	}
	if s.Has(30, segPart(2)) {
		t.Error("Has sees the tombstoned descriptor")
	}
	if s.Delete(30, segPart(2).Key()) {
		t.Error("second Delete reported present")
	}
	// Digest must not offer it; MissingFrom must still want it.
	if d := s.Digest(nil); d[30] != nil {
		t.Errorf("Digest offers tombstoned bucket: %v", d[30])
	}
	offered := Digest{30: {segPart(2).Key(): 0}}
	if m := s.MissingFrom(offered); len(m[30]) != 1 {
		t.Errorf("MissingFrom = %v, want the tombstoned key wanted again", m)
	}
}

func TestTieredDigestAndMissingFromMerge(t *testing.T) {
	s, _, _ := fiveOnDisk(2)
	d := s.Digest(nil)
	if len(d) != 5 {
		t.Fatalf("Digest covers %d buckets, want 5", len(d))
	}
	if v, ok := d[20][segPart(1).Key()]; !ok || v != 0 {
		t.Errorf("Digest[20] = %v", d[20])
	}
	// A disk copy at the offered version is not missing.
	offered := Digest{20: {segPart(1).Key(): 0}}
	if m := s.MissingFrom(offered); m != nil {
		t.Errorf("MissingFrom = %v, want nil (disk copy is current)", m)
	}
	// A strictly newer offer is missing.
	offered = Digest{20: {segPart(1).Key(): 2}}
	if m := s.MissingFrom(offered); len(m[20]) != 1 {
		t.Errorf("MissingFrom = %v, want the newer key", m)
	}
}

func TestTieredFindBestAnywhereMergesTiers(t *testing.T) {
	s, _, _ := fiveOnDisk(2)
	// The best candidate for this query lives only on disk.
	m, ok := s.FindBestAnywhere("R", "a", segPart(3).Range, MatchJaccard, nil)
	if !ok || m.Partition != segPart(3) {
		t.Fatalf("FindBestAnywhere = %+v, %v", m, ok)
	}
	// A resident upgrade of the same identity wins over the disk copy.
	up := segPart(3)
	up.Version = 9
	s.Put(40, up)
	m, ok = s.FindBestAnywhere("R", "a", segPart(3).Range, MatchJaccard, nil)
	if !ok || m.Partition.Version != 9 {
		t.Fatalf("FindBestAnywhere after upgrade = %+v, %v", m, ok)
	}
}

func TestTieredExtractArcMergesAndMasks(t *testing.T) {
	s, _, j := fiveOnDisk(3)
	// Make one arc descriptor resident (and upgraded) so the extraction
	// must merge tiers and prefer memory.
	up := segPart(1)
	up.Version = 2
	s.Put(20, up)

	out := s.ExtractArc(15, 45) // buckets 20, 30, 40
	want := map[ID][]Partition{20: {up}, 30: {segPart(2)}, 40: {segPart(3)}}
	for id := range out {
		sort.Slice(out[id], func(i, j int) bool { return out[id][i].Key() < out[id][j].Key() })
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("ExtractArc = %v, want %v", out, want)
	}
	if j.arcs != 1 {
		t.Errorf("journaled %d arc drops, want 1", j.arcs)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d after extraction, want 2", s.Len())
	}
	// The whole arc is masked: disk copies on it are gone from every view.
	for _, id := range []ID{20, 30, 40} {
		if _, ok := s.Get(id, segPart(int(id/10-1)).Key()); ok {
			t.Errorf("extracted bucket %d still serves reads", id)
		}
	}
	ids := s.IDs()
	if !reflect.DeepEqual(ids, []ID{10, 50}) {
		t.Errorf("IDs = %v, want [10 50]", ids)
	}
	if n := s.Buckets(); n != 2 {
		t.Errorf("Buckets = %d, want 2", n)
	}
}

func TestTieredSwapClearsTombstones(t *testing.T) {
	s, _, j := fiveOnDisk(2)
	j.epoch = 2
	s.Delete(10, segPart(0).Key())
	// The fold at epoch 2 applied the evict: the new segment lacks the
	// descriptor, so the tombstone dissolves and reads stay consistent.
	s.SwapSegments(newFakeSeg(map[ID][]Partition{
		20: {segPart(1)}, 30: {segPart(2)}, 40: {segPart(3)}, 50: {segPart(4)},
	}), 2)
	if _, ok := s.Get(10, segPart(0).Key()); ok {
		t.Error("deleted descriptor resurfaced after swap")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	// Re-inserting the identity after the swap works normally.
	if !s.Put(10, segPart(0)) {
		t.Error("re-insert after swap not reported new")
	}
	if _, ok := s.Get(10, segPart(0).Key()); !ok {
		t.Error("re-inserted descriptor unreadable")
	}
}

func TestTieredNilSegmentSource(t *testing.T) {
	// SetSegments(nil) enters two-tier bookkeeping with no disk yet (the
	// boot path before any compaction has run).
	s := NewBounded(2)
	j := &epochJournal{}
	s.SetJournal(j)
	s.SetSegments(nil)
	s.Put(1, segPart(0))
	if s.Len() != 1 || s.MemLen() != 1 {
		t.Fatalf("Len=%d MemLen=%d", s.Len(), s.MemLen())
	}
	if m, ok := s.FindBest(1, "R", "a", segPart(0).Range, MatchJaccard, nil); !ok || m.Partition != segPart(0) {
		t.Fatalf("FindBest = %+v, %v", m, ok)
	}
	if s.Delete(99, "absent") {
		t.Error("Delete on nil segment tier reported present")
	}
}
