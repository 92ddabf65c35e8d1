package wal

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"p2prange/internal/rangeset"
	"p2prange/internal/store"
)

// End-to-end read-through suite: a bounded tiered store over real WAL
// segments must answer byte-identically to an unbounded in-memory shadow
// fed the same operations, across folds, capacity evictions, and reboots.

// openTiered opens (or recovers) a bounded read-through store in dir.
func openTiered(t *testing.T, dir string, capacity, compactEvery int) (*store.Store, *Log, Recovery) {
	t.Helper()
	st := store.NewBounded(capacity)
	lg, rec, err := Open(Options{Dir: dir, CompactEvery: compactEvery}, st)
	if err != nil {
		t.Fatalf("Open tiered: %v", err)
	}
	return st, lg, rec
}

// dumpStore collects a store's full logical content.
func dumpStore(s *store.Store) map[store.ID][]store.Partition {
	out := make(map[store.ID][]store.Partition)
	for _, id := range s.IDs() {
		b := s.Bucket(id)
		sort.Slice(b, func(i, j int) bool { return b[i].Key() < b[j].Key() })
		out[id] = b
	}
	return out
}

// assertSameAnswers proves the tiered store and the shadow are logically
// identical: same content, and the same answer for every probe shape.
func assertSameAnswers(t *testing.T, tag string, tiered, shadow *store.Store, rng *rand.Rand) {
	t.Helper()
	if tiered.Len() != shadow.Len() {
		t.Fatalf("%s: Len %d, shadow %d", tag, tiered.Len(), shadow.Len())
	}
	got, want := dumpStore(tiered), dumpStore(shadow)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: content diverged: %d buckets vs %d", tag, len(got), len(want))
	}
	for id, bucket := range want {
		for _, p := range bucket {
			if q, ok := tiered.Get(id, p.Key()); !ok || q != p {
				t.Fatalf("%s: Get(%08x, %s) = %+v, %v; want %+v", tag, id, p.Key(), q, ok, p)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		id := store.ID(rng.Intn(24))
		q := rangeset.Range{Lo: int64(rng.Intn(300)), Hi: int64(rng.Intn(300) + 300)}
		for _, measure := range []store.Measure{store.MatchJaccard, store.MatchContainment} {
			gm, gok := tiered.FindBest(id, "R", "a", q, measure, nil)
			wm, wok := shadow.FindBest(id, "R", "a", q, measure, nil)
			if gok != wok || (gok && gm != wm) {
				t.Fatalf("%s: FindBest(%d, %v, %v) = %+v, %v; shadow %+v, %v",
					tag, id, q, measure, gm, gok, wm, wok)
			}
			// Anywhere probes tie-break to a deterministic (score, key);
			// the winning copy's replication metadata may come from any
			// bucket holding the key, so compare only the guaranteed part.
			gm, gok = tiered.FindBestAnywhere("R", "a", q, measure, nil)
			wm, wok = shadow.FindBestAnywhere("R", "a", q, measure, nil)
			if gok != wok || (gok && (gm.Score != wm.Score || gm.Partition.Key() != wm.Partition.Key())) {
				t.Fatalf("%s: FindBestAnywhere(%v, %v) = %+v, %v; shadow %+v, %v",
					tag, q, measure, gm, gok, wm, wok)
			}
		}
	}
	if d1, d2 := tiered.Digest(nil), shadow.Digest(nil); !reflect.DeepEqual(d1, d2) {
		t.Fatalf("%s: digests diverged", tag)
	}
}

// TestTieredStoreMatchesUnbounded drives random mutations through a
// cap-limited read-through store and an unbounded shadow, across several
// reboots with aggressive compaction, asserting equal answers throughout.
// This is the acceptance property: a peer whose memory holds a fraction
// of the working set answers exactly like one holding all of it.
func TestTieredStoreMatchesUnbounded(t *testing.T) {
	for _, capacity := range []int{1, 4, 16} {
		capacity := capacity
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			dir := t.TempDir()
			shadow := store.New()

			for boot := 0; boot < 3; boot++ {
				st, lg, _ := openTiered(t, dir, capacity, 11)
				assertSameAnswers(t, fmt.Sprintf("cap%d boot%d recovery", capacity, boot), st, shadow, rng)
				for op := 0; op < 50; op++ {
					switch {
					case rng.Intn(5) == 0 && shadow.Len() > 0:
						ids := shadow.IDs()
						id := ids[rng.Intn(len(ids))]
						b := shadow.Bucket(id)
						key := b[rng.Intn(len(b))].Key()
						g, w := st.Delete(id, key), shadow.Delete(id, key)
						if g != w {
							t.Fatalf("Delete(%d, %s) = %v, shadow %v", id, key, g, w)
						}
					case rng.Intn(12) == 0:
						from, to := store.ID(rng.Intn(24)), store.ID(rng.Intn(24))
						got, want := st.ExtractArc(from, to), shadow.ExtractArc(from, to)
						for id := range got {
							sort.Slice(got[id], func(i, j int) bool { return got[id][i].Key() < got[id][j].Key() })
						}
						for id := range want {
							sort.Slice(want[id], func(i, j int) bool { return want[id][i].Key() < want[id][j].Key() })
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("ExtractArc(%d, %d) diverged: %d vs %d buckets", from, to, len(got), len(want))
						}
					default:
						id := store.ID(rng.Intn(24))
						p := testPart(rng.Intn(60))
						p.Version = uint64(rng.Intn(4))
						g, w := st.Put(id, p), shadow.Put(id, p)
						if g != w {
							t.Fatalf("Put(%d, %s v%d) = %v, shadow %v", id, p.Key(), p.Version, g, w)
						}
					}
					if err := lg.Commit(); err != nil {
						t.Fatalf("Commit: %v", err)
					}
					if op%17 == 0 {
						assertSameAnswers(t, fmt.Sprintf("cap%d boot%d op%d", capacity, boot, op), st, shadow, rng)
					}
				}
				assertSameAnswers(t, fmt.Sprintf("cap%d boot%d end", capacity, boot), st, shadow, rng)
				if st.MemLen() > capacity+1 {
					// Pins may overshoot briefly between folds; a full fold ran
					// every 11 records, so the overshoot must stay small.
					t.Logf("cap%d boot%d: resident %d (cap %d)", capacity, boot, st.MemLen(), capacity)
				}
				if boot%2 == 0 {
					lg.Crash()
				} else if err := lg.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
		})
	}
}

// TestTieredRecoveryReadThrough proves a reboot with a tiny cache serves
// the full pre-crash working set from the segment: Len equals the seeded
// count while MemLen stays at the cap, and every descriptor is readable.
func TestTieredRecoveryReadThrough(t *testing.T) {
	dir := t.TempDir()
	const n = 64
	st, lg, _ := openTiered(t, dir, n, 0) // ample cap while seeding
	for i := 0; i < n; i++ {
		st.Put(store.ID(i%8), testPart(i))
	}
	if err := lg.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lg.Crash()

	const cap = n / 10
	st2, lg2, rec := openTiered(t, dir, cap, 0)
	defer lg2.Close()
	if !rec.ReadThrough || rec.SegmentSeq == 0 {
		t.Fatalf("recovery not read-through: %+v", rec)
	}
	if st2.Len() != n {
		t.Fatalf("Len = %d, want %d", st2.Len(), n)
	}
	if st2.MemLen() != 0 {
		t.Fatalf("MemLen = %d after segment-only recovery, want 0", st2.MemLen())
	}
	for i := 0; i < n; i++ {
		p := testPart(i)
		got, ok := st2.Get(store.ID(i%8), p.Key())
		if !ok || got != p {
			t.Fatalf("Get(%d, %s) = %+v, %v", i%8, p.Key(), got, ok)
		}
	}
	if st2.MemLen() > cap {
		t.Errorf("MemLen = %d exceeds cap %d after reads", st2.MemLen(), cap)
	}
}
