package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"p2prange/internal/rangeset"
)

func part(lo, hi int64) Partition {
	return Partition{Relation: "R", Attribute: "a", Range: rangeset.Range{Lo: lo, Hi: hi}, Holder: "h"}
}

func TestPutDeduplicates(t *testing.T) {
	s := New()
	if !s.Put(1, part(0, 10)) {
		t.Error("first Put should store")
	}
	if s.Put(1, part(0, 10)) {
		t.Error("duplicate Put should be ignored")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	// Same range in a different bucket is a separate descriptor.
	if !s.Put(2, part(0, 10)) {
		t.Error("same partition in another bucket should store")
	}
	if s.Len() != 2 || s.Buckets() != 2 {
		t.Errorf("Len=%d Buckets=%d, want 2, 2", s.Len(), s.Buckets())
	}
}

func TestPutFirstHolderWins(t *testing.T) {
	s := New()
	p1 := part(0, 10)
	p2 := p1
	p2.Holder = "other"
	s.Put(1, p1)
	s.Put(1, p2)
	bucket := s.Bucket(1)
	if len(bucket) != 1 || bucket[0].Holder != "h" {
		t.Errorf("bucket = %v, want single entry held by %q", bucket, "h")
	}
}

func TestFindBest(t *testing.T) {
	s := New()
	s.Put(1, part(0, 100))
	s.Put(1, part(40, 60))
	s.Put(1, part(500, 600))

	q := rangeset.Range{Lo: 45, Hi: 55}
	m, ok := s.FindBest(1, "R", "a", q, MatchJaccard, nil)
	if !ok {
		t.Fatal("expected a match")
	}
	if m.Partition.Range != (rangeset.Range{Lo: 40, Hi: 60}) {
		t.Errorf("best Jaccard match = %v", m.Partition.Range)
	}
	if want := q.Jaccard(m.Partition.Range); m.Score != want {
		t.Errorf("score = %g, want %g", m.Score, want)
	}
	// Containment prefers any containing range equally (score 1); the
	// scan keeps the first maximal one.
	m, ok = s.FindBest(1, "R", "a", q, MatchContainment, nil)
	if !ok || m.Score != 1 {
		t.Fatalf("containment match = %+v, %v", m, ok)
	}
}

func TestFindBestFiltersRelationAndAttribute(t *testing.T) {
	s := New()
	s.Put(1, Partition{Relation: "S", Attribute: "a", Range: rangeset.Range{Lo: 0, Hi: 10}})
	s.Put(1, Partition{Relation: "R", Attribute: "b", Range: rangeset.Range{Lo: 0, Hi: 10}})
	if _, ok := s.FindBest(1, "R", "a", rangeset.Range{Lo: 0, Hi: 10}, MatchJaccard, nil); ok {
		t.Error("match crossed relation/attribute boundaries")
	}
}

func TestFindBestEmptyAndDisjoint(t *testing.T) {
	s := New()
	if _, ok := s.FindBest(9, "R", "a", rangeset.Range{Lo: 0, Hi: 1}, MatchJaccard, nil); ok {
		t.Error("empty bucket should not match")
	}
	s.Put(9, part(500, 600))
	m, ok := s.FindBest(9, "R", "a", rangeset.Range{Lo: 0, Hi: 1}, MatchJaccard, nil)
	if ok {
		t.Error("disjoint candidate should report ok=false")
	}
	if m.Partition.Range != (rangeset.Range{Lo: 500, Hi: 600}) {
		t.Error("zero-score best candidate should still be populated")
	}
}

func TestFindBestAnywhere(t *testing.T) {
	s := New()
	s.Put(1, part(0, 10))
	s.Put(2, part(40, 60))
	q := rangeset.Range{Lo: 45, Hi: 55}
	// Bucket 1 has only the poor candidate...
	if m, ok := s.FindBest(1, "R", "a", q, MatchJaccard, nil); ok {
		t.Errorf("bucket 1 should have no positive match, got %+v", m)
	}
	// ...but the peer-wide index (Sec 5.3) sees bucket 2.
	m, ok := s.FindBestAnywhere("R", "a", q, MatchJaccard, nil)
	if !ok || m.Partition.Range != (rangeset.Range{Lo: 40, Hi: 60}) {
		t.Errorf("FindBestAnywhere = %+v, %v", m, ok)
	}
}

func TestMeasureScore(t *testing.T) {
	q := rangeset.Range{Lo: 0, Hi: 9}
	r := rangeset.Range{Lo: 0, Hi: 19}
	if got := MatchJaccard.Score(q, r); got != 0.5 {
		t.Errorf("Jaccard score = %g, want 0.5", got)
	}
	if got := MatchContainment.Score(q, r); got != 1 {
		t.Errorf("containment score = %g, want 1", got)
	}
	if MatchJaccard.String() != "Jaccard" || MatchContainment.String() != "Containment" {
		t.Error("Measure.String mismatch")
	}
}

func TestExtractArcAndAbsorb(t *testing.T) {
	s := New()
	s.Put(10, part(0, 10))
	s.Put(20, part(20, 30))
	s.Put(30, part(40, 50))

	// Arc (15, 25] captures bucket 20 only.
	moved := s.ExtractArc(15, 25)
	if len(moved) != 1 || len(moved[20]) != 1 {
		t.Fatalf("ExtractArc moved %v", moved)
	}
	if s.Len() != 2 {
		t.Errorf("source Len = %d after extract, want 2", s.Len())
	}
	dst := New()
	dst.Absorb(moved)
	if dst.Len() != 1 {
		t.Errorf("dst Len = %d after absorb, want 1", dst.Len())
	}
	// Whole-circle extraction drains everything.
	all := s.ExtractArc(5, 5)
	if len(all) != 2 || s.Len() != 0 {
		t.Errorf("whole-circle extract left Len=%d, moved %d buckets", s.Len(), len(all))
	}
}

func TestExtractArcWrapped(t *testing.T) {
	s := New()
	s.Put(0xfffffff0, part(0, 1))
	s.Put(0x00000010, part(2, 3))
	s.Put(0x80000000, part(4, 5))
	moved := s.ExtractArc(0xffffff00, 0x20) // wrapped arc
	if len(moved) != 2 {
		t.Fatalf("wrapped arc moved %d buckets, want 2", len(moved))
	}
}

func TestIDsSorted(t *testing.T) {
	s := New()
	for _, id := range []ID{5, 1, 9, 3} {
		s.Put(id, part(int64(id), int64(id)+1))
	}
	ids := s.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestPartitionKeyAndString(t *testing.T) {
	p := part(0, 10)
	q := part(0, 11)
	if p.Key() == q.Key() {
		t.Error("distinct partitions share a key")
	}
	if p.String() == "" || p.Key() == "" {
		t.Error("empty formatting")
	}
}

// randomBound draws an int64 that is often an extreme, a power-of-ten
// edge or a small value, so decimal texts of every length and both
// signs meet.
func randomBound(rng *rand.Rand) int64 {
	edges := []int64{0, 1, -1, 9, 10, -9, -10, 99, 100, 1 << 31, 1<<32 - 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	switch rng.Intn(3) {
	case 0:
		return edges[rng.Intn(len(edges))]
	case 1:
		return rng.Int63n(2001) - 1000
	}
	return int64(rng.Uint64())
}

// TestKeysMatchFmtForms pins the hand-built key texts to the fmt forms
// they replace, byte for byte: Range.String to "[%d,%d]", Key to
// "%s.%s%s", and the LRU entry keys to "%08x/%s".
func TestKeysMatchFmtForms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []string{"", "R", "Patient", "age", "a.b", "[x]", strings.Repeat("long", 40)}
	for i := 0; i < 20000; i++ {
		p := Partition{
			Relation:  names[rng.Intn(len(names))],
			Attribute: names[rng.Intn(len(names))],
			Range:     rangeset.Range{Lo: randomBound(rng), Hi: randomBound(rng)},
		}
		id := ID(rng.Uint32())
		if i%7 == 0 {
			id = []ID{0, 1, 0xf, 0x10, math.MaxUint32}[rng.Intn(5)]
		}
		if got, want := p.Range.String(), fmt.Sprintf("[%d,%d]", p.Range.Lo, p.Range.Hi); got != want {
			t.Fatalf("Range.String = %q, want %q", got, want)
		}
		key := fmt.Sprintf("%s.%s[%d,%d]", p.Relation, p.Attribute, p.Range.Lo, p.Range.Hi)
		if got := p.Key(); got != key {
			t.Fatalf("Key = %q, want %q", got, key)
		}
		entry := fmt.Sprintf("%08x/%s", id, key)
		if got := entryKey(id, p); got != entry {
			t.Fatalf("entryKey = %q, want %q", got, entry)
		}
		if got := entryKeyStr(id, key); got != entry {
			t.Fatalf("entryKeyStr = %q, want %q", got, entry)
		}
	}
}

// TestRangeKeyLessMatchesTextOrder pins that the digit comparison orders
// ranges exactly as their "[lo,hi]" texts compare, separators included
// ("[1,5]" < "[10,5]" but "[0,1]" > "[0,10]"), and that it allocates
// nothing.
func TestRangeKeyLessMatchesTextOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200000; i++ {
		a := rangeset.Range{Lo: randomBound(rng), Hi: randomBound(rng)}
		b := rangeset.Range{Lo: randomBound(rng), Hi: randomBound(rng)}
		switch i % 4 {
		case 0:
			b.Lo = a.Lo
		case 1:
			b = a
		}
		if got, want := rangeKeyLess(a, b), a.String() < b.String(); got != want {
			t.Fatalf("rangeKeyLess(%s, %s) = %v, want %v", a, b, got, want)
		}
	}
	a, b := rangeset.Range{Lo: 1, Hi: 5}, rangeset.Range{Lo: 10, Hi: 5}
	if n := testing.AllocsPerRun(100, func() { rangeKeyLess(a, b) }); n != 0 {
		t.Errorf("rangeKeyLess allocates %v times, want 0", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				lo := rng.Int63n(1000)
				s.Put(uint32(rng.Intn(50)), part(lo, lo+rng.Int63n(100)))
				s.FindBest(uint32(rng.Intn(50)), "R", "a", rangeset.Range{Lo: lo, Hi: lo + 10}, MatchJaccard, nil)
				s.FindBestAnywhere("R", "a", rangeset.Range{Lo: lo, Hi: lo + 10}, MatchContainment, nil)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Error("nothing stored")
	}
}

// Property: FindBest returns the maximal score in the bucket.
func TestFindBestIsMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		s := New()
		n := 1 + rng.Intn(20)
		var parts []Partition
		for i := 0; i < n; i++ {
			lo := rng.Int63n(1000)
			p := part(lo, lo+rng.Int63n(200))
			if s.Put(3, p) {
				parts = append(parts, p)
			}
		}
		qlo := rng.Int63n(1000)
		q := rangeset.Range{Lo: qlo, Hi: qlo + rng.Int63n(200)}
		for _, measure := range []Measure{MatchJaccard, MatchContainment} {
			m, ok := s.FindBest(3, "R", "a", q, measure, nil)
			best := 0.0
			for _, p := range parts {
				if sc := measure.Score(q, p.Range); sc > best {
					best = sc
				}
			}
			if ok != (best > 0) {
				t.Fatalf("ok=%v but best=%g", ok, best)
			}
			if ok && m.Score != best {
				t.Fatalf("FindBest score %g, brute force %g", m.Score, best)
			}
		}
	}
}

// Property: ExtractArc + Absorb conserves descriptors, and the extracted
// set is exactly the bucket ids on the arc.
func TestExtractAbsorbConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		s := New()
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			lo := rng.Int63n(1000)
			s.Put(rng.Uint32(), part(lo, lo+rng.Int63n(50)))
		}
		total := s.Len()
		from, to := rng.Uint32(), rng.Uint32()
		moved := s.ExtractArc(from, to)
		movedCount := 0
		for id, bucket := range moved {
			if !betweenRightIncl(from, to, id) {
				t.Fatalf("extracted id %08x outside arc (%08x,%08x]", id, from, to)
			}
			movedCount += len(bucket)
		}
		for _, id := range s.IDs() {
			if betweenRightIncl(from, to, id) && from != to {
				t.Fatalf("id %08x on arc (%08x,%08x] left behind", id, from, to)
			}
		}
		if s.Len()+movedCount != total {
			t.Fatalf("conservation violated: %d + %d != %d", s.Len(), movedCount, total)
		}
		dst := New()
		dst.Absorb(moved)
		if s.Len()+dst.Len() != total {
			t.Fatalf("absorb lost descriptors: %d + %d != %d", s.Len(), dst.Len(), total)
		}
	}
}

// Property: Put/FindBest never mutate unrelated buckets.
func TestBucketIsolation(t *testing.T) {
	s := New()
	s.Put(1, part(0, 10))
	snapshot := s.Bucket(1)
	s.Put(2, part(20, 30))
	s.FindBest(2, "R", "a", rangeset.Range{Lo: 0, Hi: 5}, MatchJaccard, nil)
	after := s.Bucket(1)
	if len(after) != len(snapshot) || after[0] != snapshot[0] {
		t.Error("bucket 1 changed by operations on bucket 2")
	}
}

func TestBoundedStoreEvictsLRU(t *testing.T) {
	s := NewBounded(3)
	s.Put(1, part(0, 10))
	s.Put(2, part(20, 30))
	s.Put(3, part(40, 50))
	// Touch buckets 1 and 2 via matches; bucket 3 becomes the LRU victim.
	s.FindBest(1, "R", "a", rangeset.Range{Lo: 0, Hi: 10}, MatchJaccard, nil)
	s.FindBest(2, "R", "a", rangeset.Range{Lo: 20, Hi: 30}, MatchJaccard, nil)
	s.Put(4, part(60, 70)) // overflow: evicts bucket 3's entry
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", s.Len())
	}
	if len(s.Bucket(3)) != 0 {
		t.Error("LRU entry (bucket 3) not evicted")
	}
	for _, id := range []ID{1, 2, 4} {
		if len(s.Bucket(id)) != 1 {
			t.Errorf("bucket %d unexpectedly evicted", id)
		}
	}
}

func TestBoundedStoreNeverExceedsCapacity(t *testing.T) {
	s := NewBounded(10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		lo := rng.Int63n(1000)
		s.Put(rng.Uint32(), part(lo, lo+rng.Int63n(100)))
		if s.Len() > 10 {
			t.Fatalf("Len = %d exceeds capacity after %d puts", s.Len(), i+1)
		}
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d, want full capacity 10", s.Len())
	}
}

func TestUnboundedStoreNeverEvicts(t *testing.T) {
	s := New()
	for i := 0; i < 200; i++ {
		s.Put(ID(i), part(int64(i), int64(i)+1))
	}
	if s.Len() != 200 {
		t.Errorf("unbounded store evicted: Len = %d", s.Len())
	}
}

func TestFindBestBreaksTiesDeterministically(t *testing.T) {
	// Two candidates overlapping the query symmetrically, so their
	// Jaccard scores tie exactly.
	q := rangeset.Range{Lo: 20, Hi: 30}
	a := part(10, 25) // overlap [20,25]: 6/21
	b := part(25, 40) // overlap [25,30]: 6/21
	if q.Jaccard(a.Range) != q.Jaccard(b.Range) {
		t.Fatalf("test setup: scores differ: %v vs %v", q.Jaccard(a.Range), q.Jaccard(b.Range))
	}
	want := a
	if b.Key() < a.Key() {
		want = b
	}
	// Replicated copies land in different append orders on different
	// peers; both orders must return the same best match.
	for _, order := range [][]Partition{{a, b}, {b, a}} {
		s := New()
		for _, p := range order {
			s.Put(1, p)
		}
		m, ok := s.FindBest(1, "R", "a", q, MatchJaccard, nil)
		if !ok || m.Partition.Key() != want.Key() {
			t.Errorf("order %v: best = %v, want %v", order, m.Partition.Key(), want.Key())
		}
		ma, ok := s.FindBestAnywhere("R", "a", q, MatchJaccard, nil)
		if !ok || ma.Partition.Key() != want.Key() {
			t.Errorf("order %v: FindBestAnywhere best = %v, want %v", order, ma.Partition.Key(), want.Key())
		}
	}
}

// TestBetterTieBreakMatchesKeyOrder pins that better breaks score ties in
// exactly the order of comparing Key() strings (text, not numbers:
// [10,20] before [9,20]), so replacing the formatted keys reorders no
// tie, and that it formats nothing on the heap.
func TestBetterTieBreakMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"R", "S", "Patient", "a", "age", "ab", ""}
	bounds := []int64{0, 1, 9, 10, 99, 100, 123456, -1, -9, -10, -100, math.MaxInt64, math.MinInt64}
	draw := func() Partition {
		lo := bounds[rng.Intn(len(bounds))]
		if rng.Intn(2) == 0 {
			lo = rng.Int63n(2001) - 1000
		}
		hi := bounds[rng.Intn(len(bounds))]
		if rng.Intn(2) == 0 {
			hi = rng.Int63n(2001) - 1000
		}
		return Partition{
			Relation:  names[rng.Intn(len(names))],
			Attribute: names[rng.Intn(len(names))],
			Range:     rangeset.Range{Lo: lo, Hi: hi},
			Holder:    "h",
		}
	}
	for i := 0; i < 20000; i++ {
		a, b := draw(), draw()
		if i%4 == 0 {
			b = a // equal keys
			b.Holder = "other"
		}
		ma, mb := Match{Partition: a, Score: 0.5}, Match{Partition: b, Score: 0.5}
		if got, want := better(ma, mb), a.Key() < b.Key(); got != want {
			t.Fatalf("better(%s, %s) = %v, want %v (Key order)", a.Key(), b.Key(), got, want)
		}
	}
	a := Partition{Relation: "Patient", Attribute: "age", Range: rangeset.Range{Lo: 10, Hi: 20}}
	b := Partition{Relation: "Patient", Attribute: "age", Range: rangeset.Range{Lo: 9, Hi: 20}}
	if !better(Match{Partition: a}, Match{Partition: b}) {
		t.Errorf("[10,20] must win the tie against [9,20], as its key sorts first")
	}
	if n := testing.AllocsPerRun(100, func() { better(Match{Partition: a}, Match{Partition: b}) }); n != 0 {
		t.Errorf("better allocates %v times per tie, want 0", n)
	}
}

func TestReplicaVersionUpgradeInPlace(t *testing.T) {
	s := New()
	p := part(0, 10)
	s.Put(1, p)
	stamped := p
	stamped.Version, stamped.Origin = 7, "owner:1"
	if s.Put(1, stamped) {
		t.Error("version upgrade should not count as a new descriptor")
	}
	if got := s.Bucket(1); len(got) != 1 || got[0].Version != 7 || got[0].Origin != "owner:1" {
		t.Errorf("bucket = %+v, want single copy at version 7", got)
	}
	// A stale (lower-version) duplicate must not downgrade the copy.
	s.Put(1, p)
	if got := s.Bucket(1); got[0].Version != 7 {
		t.Errorf("stale duplicate downgraded version to %d", got[0].Version)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestReplicaDigestAndMissingFrom(t *testing.T) {
	owner := New()
	a, b, c := part(0, 10), part(20, 30), part(40, 50)
	a.Version, b.Version, c.Version = 1, 2, 3
	owner.Put(1, a)
	owner.Put(1, b)
	owner.Put(2, c)

	rep := New()
	rep.Put(1, a) // up to date
	stale := b
	stale.Version = 1 // older copy
	rep.Put(1, stale)
	// bucket 2 entirely absent

	d := owner.Digest(nil)
	if len(d) != 2 || len(d[1]) != 2 || d[2][c.Key()] != 3 {
		t.Fatalf("digest = %v", d)
	}
	missing := rep.MissingFrom(d)
	if len(missing[1]) != 1 || missing[1][0] != b.Key() {
		t.Errorf("missing[1] = %v, want [%s]", missing[1], b.Key())
	}
	if len(missing[2]) != 1 || missing[2][0] != c.Key() {
		t.Errorf("missing[2] = %v, want [%s]", missing[2], c.Key())
	}
	// Repair and re-check: nothing missing afterwards.
	for id, keys := range missing {
		for _, k := range keys {
			p, ok := owner.Get(id, k)
			if !ok {
				t.Fatalf("owner lost %s", k)
			}
			rep.Put(id, p)
		}
	}
	if m := rep.MissingFrom(owner.Digest(nil)); m != nil {
		t.Errorf("still missing after repair: %v", m)
	}
	// Filtered digest keeps only accepted buckets.
	if d := owner.Digest(func(id ID) bool { return id == 2 }); len(d) != 1 || d[2] == nil {
		t.Errorf("filtered digest = %v", d)
	}
}

func TestVersionUpgradeRefreshesLRU(t *testing.T) {
	s := NewBounded(2)
	a, b := part(0, 10), part(20, 30)
	s.Put(1, a) // a is oldest
	s.Put(2, b)
	// Anti-entropy repairs a with a newer version: that must refresh its
	// recency, making b the eviction victim — a repaired hot replica must
	// not be first out the door.
	repaired := a
	repaired.Version = 5
	s.Put(1, repaired)
	s.Put(3, part(40, 50)) // overflow
	if len(s.Bucket(1)) != 1 {
		t.Error("freshly repaired descriptor evicted first")
	}
	if len(s.Bucket(2)) != 0 {
		t.Error("stale descriptor survived eviction")
	}
}

func TestEvictionAfterExtractArc(t *testing.T) {
	// ExtractArc must scrub LRU state: an extracted descriptor can no
	// longer be the eviction victim, and re-absorbing works.
	s := NewBounded(3)
	s.Put(1, part(0, 10))
	s.Put(2, part(20, 30))
	s.Put(3, part(40, 50))
	out := s.ExtractArc(0, 2) // removes buckets 1 and 2
	if s.Len() != 1 {
		t.Fatalf("Len after extract = %d, want 1", s.Len())
	}
	s.Put(4, part(60, 70))
	s.Put(5, part(80, 90))
	s.Put(6, part(100, 110)) // overflow: must evict bucket 3 (oldest live)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if len(s.Bucket(3)) != 0 {
		t.Error("oldest live entry (bucket 3) not evicted")
	}
	s.Absorb(out) // back over capacity triggers further evictions
	if s.Len() != 3 {
		t.Errorf("Len after absorb = %d, want capacity 3", s.Len())
	}
}

func TestConcurrentBoundedFindBest(t *testing.T) {
	// Bounded FindBest scans under the read lock and only upgrades on a
	// hit; hammer hits, misses, and puts concurrently under the race
	// detector.
	s := NewBounded(50)
	for i := int64(0); i < 50; i++ {
		s.Put(ID(i), part(i*10, i*10+5))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 300; i++ {
				id := ID(i % 60)
				s.FindBest(id, "R", "a", rangeset.Range{Lo: int64(id) * 10, Hi: int64(id)*10 + 5}, MatchJaccard, nil)
				if w == 0 {
					s.Put(ID(50+i%10), part(1000+i, 1005+i))
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 50 {
		t.Errorf("Len = %d exceeds capacity", s.Len())
	}
}

func TestStoreCommit(t *testing.T) {
	// Memory-only: the barrier is free and always succeeds.
	s := New()
	s.Put(1, part(0, 10))
	if err := s.Commit(); err != nil {
		t.Fatalf("memory-only Commit = %v, want nil", err)
	}
	// Journaled: Commit is the journal's barrier, its error included.
	j := &epochJournal{commitErr: errors.New("disk gone")}
	s.SetJournal(j)
	if err := s.Commit(); !errors.Is(err, j.commitErr) || j.commits != 1 {
		t.Fatalf("journaled Commit = %v after %d journal commit(s), want the journal's error once", err, j.commits)
	}
	// Detached: neither mutations nor the barrier reach the journal.
	s.SetJournal(nil)
	s.Put(2, part(20, 30))
	if err := s.Commit(); err != nil {
		t.Fatalf("detached Commit = %v, want nil", err)
	}
	if j.commits != 1 || j.puts != 0 {
		t.Errorf("detached journal saw %d commit(s) and %d put(s), want 1 and 0", j.commits, j.puts)
	}
}

func TestBoundedEvictionIsNeverJournaled(t *testing.T) {
	// Capacity eviction only drops a cached copy; only Delete journals an
	// evict record.
	s := NewBounded(2)
	j := &epochJournal{}
	s.SetJournal(j)
	for i := int64(0); i < 4; i++ {
		s.Put(ID(i), part(i*10, i*10+5))
	}
	if s.MemLen() != 2 || j.puts != 4 || j.evicts != 0 {
		t.Fatalf("MemLen=%d puts=%d evicts=%d, want 2, 4, 0", s.MemLen(), j.puts, j.evicts)
	}
	if !s.Delete(3, part(30, 35).Key()) || j.evicts != 1 {
		t.Errorf("Delete journaled %d evict(s), want 1", j.evicts)
	}
}
