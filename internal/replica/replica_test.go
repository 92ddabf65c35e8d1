package replica

import (
	"reflect"
	"sync"
	"testing"

	"p2prange/internal/chord"
	"p2prange/internal/rangeset"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

func ref(i int) chord.Ref {
	return chord.Ref{ID: uint32(i), Addr: string(rune('a' + i))}
}

func part(lo, hi int64) store.Partition {
	return store.Partition{Relation: "R", Attribute: "a", Range: rangeset.Range{Lo: lo, Hi: hi}, Holder: "h"}
}

// fakeRing is a transport-free cluster of stores: the manager under test
// sits at refs[0] and sees refs[1:] as its successor list; in general
// refs[i]'s successor list is the rest of the ring in order from i+1.
type fakeRing struct {
	mu      sync.Mutex
	refs    []chord.Ref
	stores  map[chord.ID]*store.Store
	loads   map[chord.ID]int64
	down    map[chord.ID]bool
	fanout  int            // fan-out every fake peer reports for LoadReq
	fanouts map[uint32]int // per-bucket fan-outs overriding fanout
	calls   []call         // every Call, in order
}

// call is one request the fake ring received.
type call struct {
	to  chord.ID
	req any
}

func newFakeRing(n int) *fakeRing {
	r := &fakeRing{
		stores:  make(map[chord.ID]*store.Store),
		loads:   make(map[chord.ID]int64),
		down:    make(map[chord.ID]bool),
		fanout:  1,
		fanouts: make(map[uint32]int),
	}
	for i := 0; i < n; i++ {
		r.refs = append(r.refs, ref(i))
		r.stores[uint32(i)] = store.New()
	}
	return r
}

func (r *fakeRing) deps() Deps {
	return Deps{
		Successors: func(k int) []chord.Ref {
			if k > len(r.refs)-1 {
				k = len(r.refs) - 1
			}
			return append([]chord.Ref(nil), r.refs[1:1+k]...)
		},
		Owns:    func(id uint32) bool { return true },
		Suspect: func(id chord.ID) {},
		Push: func(to chord.Ref, id uint32, p store.Partition) error {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.down[to.ID] {
				return transport.ErrUnknownAddr
			}
			r.stores[to.ID].Put(id, p)
			return nil
		},
		Call: func(to chord.Ref, req any) (any, error) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if _, ok := req.(LoadReq); ok {
				r.calls = append(r.calls, call{to: to.ID, req: req})
			}
			if r.down[to.ID] {
				return nil, transport.ErrUnknownAddr
			}
			switch q := req.(type) {
			case SyncReq:
				return SyncResp{Missing: r.stores[to.ID].MissingFrom(q.Digest)}, nil
			case LoadReq:
				resp := LoadResp{Load: r.loads[to.ID]}
				if len(q.IDs) == 0 {
					return resp, nil
				}
				for _, id := range q.IDs {
					f, ok := r.fanouts[id]
					if !ok {
						f = r.fanout
					}
					resp.Fanouts = append(resp.Fanouts, f)
				}
				i := int(to.ID)
				resp.Successors = append(append([]chord.Ref(nil), r.refs[i+1:]...), r.refs[:i]...)
				return resp, nil
			}
			return nil, transport.BadRequest(req)
		},
	}
}

func (r *fakeRing) manager(cfg Config) *Manager {
	return NewManager(r.refs[0], r.stores[r.refs[0].ID], cfg, r.deps())
}

func TestReplicaTrackerPromotionAndDecay(t *testing.T) {
	tr := NewTracker(4)
	for i := 0; i < 3; i++ {
		if tr.Hit(7) {
			t.Fatalf("promoted after %d hits, threshold 4", i+1)
		}
	}
	if !tr.Hit(7) {
		t.Fatal("4th hit should promote")
	}
	if tr.Hit(7) {
		t.Fatal("promotion should fire exactly once")
	}
	if !tr.Hot(7) || tr.Hot(8) {
		t.Fatal("hot set wrong")
	}
	if tr.Load() != 5 {
		t.Fatalf("Load = %d, want 5", tr.Load())
	}
	tr.Decay() // 5 -> 2, still >= threshold/2: stays hot
	if !tr.Hot(7) {
		t.Fatal("decay to 2 should keep bucket hot (demotion at <2)")
	}
	tr.Decay() // 2 -> 1 < threshold/2: demoted
	if tr.Hot(7) {
		t.Fatal("bucket should demote once cooled below threshold/2")
	}
	promoted := false
	for i := 0; i < 4 && !promoted; i++ {
		promoted = tr.Hit(7)
	}
	if !promoted {
		t.Fatal("cooled bucket should be promotable again")
	}
}

func TestReplicaStampAndReplicate(t *testing.T) {
	r := newFakeRing(5)
	m := r.manager(Config{R: 3})
	p := part(0, 10)
	m.Stamp(&p)
	if p.Version != 1 || p.Origin != r.refs[0].Addr {
		t.Fatalf("stamped %+v, want version 1 origin %q", p, r.refs[0].Addr)
	}
	if sent := m.Replicate(42, p); sent != 2 {
		t.Fatalf("Replicate sent %d copies, want R-1 = 2", sent)
	}
	for _, i := range []int{1, 2} {
		if got := r.stores[uint32(i)].Bucket(42); len(got) != 1 || got[0].Version != 1 {
			t.Errorf("successor %d: bucket = %+v, want the stamped copy", i, got)
		}
	}
	if len(r.stores[3].Bucket(42)) != 0 {
		t.Error("copy placed beyond the replica set")
	}
	var q = part(20, 30)
	m.Stamp(&q)
	if q.Version != 2 {
		t.Errorf("versions not monotonic: %d", q.Version)
	}
}

func TestReplicaReplicateSkipsDeadSuccessor(t *testing.T) {
	r := newFakeRing(4)
	r.down[1] = true
	m := r.manager(Config{R: 3})
	p := part(0, 10)
	m.Stamp(&p)
	r.stores[0].Put(42, p)
	// Placement is fixed (first R-1 successors), so a dead successor
	// means a lost copy now — anti-entropy repairs it later.
	if sent := m.Replicate(42, p); sent != 1 {
		t.Fatalf("sent %d, want 1 (successor 1 down)", sent)
	}
	r.down[1] = false
	st := m.Sync()
	if st.Repaired != 1 {
		t.Fatalf("Sync repaired %d, want 1", st.Repaired)
	}
	if got := r.stores[1].Bucket(42); len(got) != 1 {
		t.Errorf("successor 1 not repaired: %v", got)
	}
}

func TestReplicaSyncRepairsStaleAndMissing(t *testing.T) {
	r := newFakeRing(4)
	m := r.manager(Config{R: 3})
	a, b := part(0, 10), part(20, 30)
	m.Stamp(&a)
	m.Stamp(&b)
	r.stores[0].Put(1, a)
	r.stores[0].Put(2, b)
	stale := a
	stale.Version = 0
	r.stores[1].Put(1, stale) // successor 1: stale copy of a, no b
	// successor 2: nothing at all

	st := m.Sync()
	if st.Peers != 2 {
		t.Fatalf("synced %d peers, want 2", st.Peers)
	}
	if st.Repaired != 4 { // a+b at successor 2, a(upgrade)+b at successor 1
		t.Fatalf("repaired %d copies, want 4", st.Repaired)
	}
	for _, i := range []int{1, 2} {
		if got := r.stores[uint32(i)].Bucket(1); len(got) != 1 || got[0].Version != a.Version {
			t.Errorf("successor %d bucket 1 = %+v", i, got)
		}
		if got := r.stores[uint32(i)].Bucket(2); len(got) != 1 {
			t.Errorf("successor %d missing bucket 2", i)
		}
	}
	// Converged: a second round repairs nothing.
	if st := m.Sync(); st.Repaired != 0 {
		t.Errorf("second Sync repaired %d, want 0", st.Repaired)
	}
}

// TestReplicaSyncStopsPushingToDeadSuccessor pins that anti-entropy
// gives up on a successor whose repair push fails in transit: it answered
// the digest exchange and then died, so each further push would run the
// caller's full retry backoff. Sync must suspect it after one push and
// still repair the next successor.
func TestReplicaSyncStopsPushingToDeadSuccessor(t *testing.T) {
	r := newFakeRing(4)
	deps := r.deps()
	pushes := make(map[chord.ID]int)
	var suspected []chord.ID
	push := deps.Push
	deps.Push = func(to chord.Ref, id uint32, p store.Partition) error {
		pushes[to.ID]++
		if to.ID == 1 {
			return transport.ErrUnknownAddr
		}
		return push(to, id, p)
	}
	deps.Suspect = func(id chord.ID) { suspected = append(suspected, id) }
	m := NewManager(r.refs[0], r.stores[0], Config{R: 3}, deps)
	for i := int64(0); i < 3; i++ {
		p := part(10*i, 10*i+5)
		m.Stamp(&p)
		r.stores[0].Put(uint32(i+1), p)
	}

	st := m.Sync()
	if pushes[1] != 1 {
		t.Errorf("pushed %d times to the dead successor, want 1", pushes[1])
	}
	if !reflect.DeepEqual(suspected, []chord.ID{1}) {
		t.Errorf("suspected %v, want [1]", suspected)
	}
	if pushes[2] != 3 || st.Repaired != 3 {
		t.Errorf("successor 2: %d pushes, %d repaired; want 3 and 3", pushes[2], st.Repaired)
	}
	for id := uint32(1); id <= 3; id++ {
		if got := r.stores[2].Bucket(id); len(got) != 1 {
			t.Errorf("successor 2 bucket %d = %v, want the repaired copy", id, got)
		}
	}
}

func TestReplicaSyncOffersOnlyOwnedBuckets(t *testing.T) {
	r := newFakeRing(3)
	deps := r.deps()
	deps.Owns = func(id uint32) bool { return id == 1 }
	m := NewManager(r.refs[0], r.stores[0], Config{R: 3}, deps)
	a, b := part(0, 10), part(20, 30)
	m.Stamp(&a)
	m.Stamp(&b)
	r.stores[0].Put(1, a) // owned
	r.stores[0].Put(2, b) // a replica this peer merely holds
	m.Sync()
	for _, i := range []int{1, 2} {
		if len(r.stores[uint32(i)].Bucket(2)) != 0 {
			t.Errorf("successor %d received a copy of an unowned bucket", i)
		}
	}
	if len(r.stores[1].Bucket(1)) != 1 {
		t.Error("owned bucket not replicated")
	}
}

func TestReplicaHitPromotionWidensSet(t *testing.T) {
	r := newFakeRing(7)
	m := r.manager(Config{R: 2, HotThreshold: 3})
	p := part(0, 10)
	m.Stamp(&p)
	r.stores[0].Put(9, p)
	m.Replicate(9, p)
	if len(r.stores[2].Bucket(9)) != 0 {
		t.Fatal("cold bucket should have R-1 = 1 copy")
	}
	for i := 0; i < 3; i++ {
		m.Hit(9)
	}
	if m.Fanout(9) != 4 {
		t.Fatalf("Fanout = %d after promotion, want 2*R = 4", m.Fanout(9))
	}
	for _, i := range []int{1, 2, 3} {
		if len(r.stores[uint32(i)].Bucket(9)) != 1 {
			t.Errorf("successor %d lacks the widened copy", i)
		}
	}
	if len(r.stores[4].Bucket(9)) != 0 {
		t.Error("copy placed beyond 2*R-1 successors")
	}
}

// refIDs lists the refs of cands, in order.
func refIDs(cands []Candidate) []chord.ID {
	out := make([]chord.ID, len(cands))
	for i, c := range cands {
		out[i] = c.Ref.ID
	}
	return out
}

func TestReplicaRankOrdersByLoad(t *testing.T) {
	r := newFakeRing(4)
	r.fanout = 3
	m := r.manager(Config{R: 3})
	r.loads[0], r.loads[1], r.loads[2] = 10, 2, 7
	got := m.Rank([]uint32{5}, []chord.Ref{r.refs[0]}, nil)
	if ids := refIDs(got[0]); !reflect.DeepEqual(ids, []chord.ID{1, 2, 0}) {
		t.Errorf("candidates %v, want least loaded first [1 2 0]", ids)
	}
	if got[0][0].Load != 2 {
		t.Errorf("first candidate load %d, want 2", got[0][0].Load)
	}
	// Equal gauges keep ring order, owner first: an idle ring behaves
	// like the unreplicated protocol.
	r.loads[0], r.loads[1], r.loads[2] = 4, 4, 4
	got = m.Rank([]uint32{5}, []chord.Ref{r.refs[0]}, nil)
	if ids := refIDs(got[0]); !reflect.DeepEqual(ids, []chord.ID{0, 1, 2}) {
		t.Errorf("tied candidates %v, want owner first [0 1 2]", ids)
	}
}

// TestReplicaRankOneLoadRound pins the cost of a lookup's selection:
// one LoadReq per distinct owner carrying all of its identifiers, and
// at most one gauge-only LoadReq for every other replica-set member,
// even when members are shared between owners and probes.
func TestReplicaRankOneLoadRound(t *testing.T) {
	r := newFakeRing(6)
	r.fanout = 3
	m := r.manager(Config{R: 3})
	ids := []uint32{5, 6, 7, 8, 9}
	owners := []chord.Ref{r.refs[0], r.refs[2], r.refs[0], r.refs[2], r.refs[1]}
	got := m.Rank(ids, owners, nil)
	want := [][]chord.ID{{0, 1, 2}, {2, 3, 4}, {0, 1, 2}, {2, 3, 4}, {1, 2, 3}}
	for i := range ids {
		if ids := refIDs(got[i]); !reflect.DeepEqual(ids, want[i]) {
			t.Errorf("probe %d: candidates %v, want %v", i+1, ids, want[i])
		}
	}
	wantCalls := []call{
		{0, LoadReq{IDs: []uint32{5, 7}}},
		{2, LoadReq{IDs: []uint32{6, 8}}},
		{1, LoadReq{IDs: []uint32{9}}},
		{3, LoadReq{}},
		{4, LoadReq{}},
	}
	if !reflect.DeepEqual(r.calls, wantCalls) {
		t.Errorf("calls %+v, want %+v", r.calls, wantCalls)
	}
}

// TestReplicaRankSkipsDeadSuccessor checks that a member failing its
// gauge probe is suspected, left out of every candidate list and never
// asked again in the call; the walk continues down the successor list.
func TestReplicaRankSkipsDeadSuccessor(t *testing.T) {
	r := newFakeRing(5)
	r.fanout = 3
	r.down[1] = true
	var suspected []chord.ID
	deps := r.deps()
	deps.Suspect = func(id chord.ID) { suspected = append(suspected, id) }
	m := NewManager(r.refs[0], r.stores[0], Config{R: 3}, deps)
	owners := []chord.Ref{r.refs[0], r.refs[0], r.refs[4]}
	got := m.Rank([]uint32{5, 6, 7}, owners, nil)
	for i, want := range [][]chord.ID{{0, 2, 3}, {0, 2, 3}, {4, 0, 2}} {
		if ids := refIDs(got[i]); !reflect.DeepEqual(ids, want) {
			t.Errorf("probe %d: candidates %v, want %v", i+1, ids, want)
		}
	}
	asked := 0
	for _, c := range r.calls {
		if c.to == 1 {
			asked++
		}
	}
	if asked != 1 {
		t.Errorf("dead successor asked %d times, want 1", asked)
	}
	if !reflect.DeepEqual(suspected, []chord.ID{1}) {
		t.Errorf("suspected %v, want [1]", suspected)
	}
}

func TestReplicaRankOwnerDownGivesNoCandidates(t *testing.T) {
	r := newFakeRing(3)
	r.fanout = 3
	r.down[0] = true
	suspected := false
	deps := r.deps()
	deps.Suspect = func(id chord.ID) { suspected = suspected || id == 0 }
	m := NewManager(r.refs[0], r.stores[0], Config{R: 3}, deps)
	got := m.Rank([]uint32{5, 6}, []chord.Ref{r.refs[0], r.refs[1]}, nil)
	if len(got[0]) != 0 {
		t.Errorf("unreachable owner ranked %v, want no candidates", refIDs(got[0]))
	}
	if ids := refIDs(got[1]); !reflect.DeepEqual(ids, []chord.ID{1, 2}) {
		t.Errorf("live owner's candidates %v, want [1 2] (the dead peer is skipped)", ids)
	}
	if !suspected {
		t.Error("dead owner not marked suspect")
	}
}

// TestReplicaRankHotAndColdBuckets checks that one owner's reply carries
// a fan-out per bucket, so its hot and cold buckets get candidate lists
// of different widths in one call, and that HandleLoad reports them.
func TestReplicaRankHotAndColdBuckets(t *testing.T) {
	r := newFakeRing(7)
	m := r.manager(Config{R: 2, HotThreshold: 3})
	for i := 0; i < 3; i++ {
		m.Hit(9)
	}
	lr := m.HandleLoad(LoadReq{IDs: []uint32{9, 5}})
	if !reflect.DeepEqual(lr.Fanouts, []int{4, 2}) || lr.Load != 3 {
		t.Fatalf("HandleLoad = %+v, want load 3 and fan-outs [4 2]", lr)
	}
	if lr := m.HandleLoad(LoadReq{}); len(lr.Fanouts) != 0 {
		t.Errorf("gauge-only HandleLoad returned fan-outs %v", lr.Fanouts)
	}
	r.fanouts[9], r.fanouts[5] = 4, 2
	got := m.Rank([]uint32{9, 5}, []chord.Ref{r.refs[0], r.refs[0]}, nil)
	if len(got[0]) != 4 || len(got[1]) != 2 {
		t.Errorf("hot bucket ranked %d candidates, cold %d; want 4 and 2", len(got[0]), len(got[1]))
	}
	if len(r.calls) != 4 {
		t.Errorf("%d load probes, want 4 (the owner once, 3 successors once each)", len(r.calls))
	}
}

// TestReplicaManagerConcurrency exercises the manager's shared state
// (tracker counts, version counter, store) from racing goroutines; run
// under -race it is the data-race gate for the subsystem.
func TestReplicaManagerConcurrency(t *testing.T) {
	r := newFakeRing(6)
	r.fanout = 3
	m := r.manager(Config{R: 3, HotThreshold: 8})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := part(int64(i), int64(i)+10)
				m.Stamp(&p)
				id := uint32(i % 7)
				r.stores[0].Put(id, p)
				m.Replicate(id, p)
				m.Hit(id)
				if i%50 == 0 {
					m.Sync()
				}
				m.Rank([]uint32{id, id + 1}, []chord.Ref{r.refs[0], r.refs[w+1]}, nil)
			}
		}(w)
	}
	wg.Wait()
	if m.Load() == 0 {
		t.Error("tracker recorded no load")
	}
}

func BenchmarkReplicaTrackerHit(b *testing.B) {
	tr := NewTracker(DefaultHotThreshold)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Hit(uint32(i % 512))
	}
}

func BenchmarkReplicaSyncConverged(b *testing.B) {
	r := newFakeRing(4)
	m := r.manager(Config{R: 3})
	for i := 0; i < 256; i++ {
		p := part(int64(i)*10, int64(i)*10+5)
		m.Stamp(&p)
		r.stores[0].Put(uint32(i%32), p)
		m.Replicate(uint32(i%32), p)
	}
	m.Sync() // converge
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sync()
	}
}

// BenchmarkReplicaRank measures one lookup's selection: five probes over
// three owners with fan-out 3, so three owner requests and three
// gauge-only probes on the fake ring.
func BenchmarkReplicaRank(b *testing.B) {
	r := newFakeRing(6)
	r.fanout = 3
	m := r.manager(Config{R: 3})
	ids := []uint32{1, 2, 3, 4, 5}
	owners := []chord.Ref{r.refs[0], r.refs[2], r.refs[0], r.refs[4], r.refs[2]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.calls = r.calls[:0]
		m.Rank(ids, owners, nil)
	}
}
