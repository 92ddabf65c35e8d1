package chord

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// legacyClosestPreceding is the closest-preceding rule as a plain scan of
// the raw tables, without the deduplication in candidates: the highest
// live finger, then the highest live successor-list entry, strictly
// between the node and id.
func legacyClosestPreceding(n *Node, id ID) Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for k := M - 1; k >= 0; k-- {
		if f := n.fingers[k]; !f.IsZero() && Between(n.ref.ID, id, f.ID) && !n.Suspect(f.ID) {
			return f
		}
	}
	for i := len(n.succs) - 1; i >= 0; i-- {
		if s := n.succs[i]; !s.IsZero() && Between(n.ref.ID, id, s.ID) && !n.Suspect(s.ID) {
			return s
		}
	}
	return n.ref
}

// TestRouteTableMatchesClosestPreceding pins the one-scan contract: on
// rings with stale fingers and suspect nodes, HandleRouteTable carries
// the node's raw successor list, and the first of its candidates
// strictly between the node and id is exactly what
// HandleClosestPreceding answers, and both equal the plain table scan.
func TestRouteTableMatchesClosestPreceding(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for ring := 0; ring < 8; ring++ {
		nodes, _ := buildRing(t, 8+rng.Intn(56))
		for _, n := range nodes {
			// Stale fingers: point some at arbitrary nodes, blank one.
			for s := 0; s < 4; s++ {
				n.fingers[rng.Intn(M)] = nodes[rng.Intn(len(nodes))].Ref()
			}
			if rng.Intn(4) == 0 {
				n.fingers[rng.Intn(M)] = Ref{}
			}
			for s := 0; s < 3; s++ {
				n.MarkSuspect(nodes[rng.Intn(len(nodes))].ID())
			}
		}
		for _, n := range nodes {
			tbl, err := n.HandleRouteTable()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tbl.Succs, n.SuccessorList()) {
				t.Fatalf("%s: table successors %v, want the successor list %v", n.Ref(), tbl.Succs, n.SuccessorList())
			}
			for i, r := range tbl.Cands {
				if r.IsZero() || n.Suspect(r.ID) || (i > 0 && r == tbl.Cands[i-1]) {
					t.Fatalf("%s: candidate %d is %s: zero, suspect or an adjacent duplicate", n.Ref(), i, r)
				}
			}
			for q := 0; q < 50; q++ {
				id := rng.Uint32()
				want := firstBetween(tbl.Cands, n.Ref(), id)
				got, err := n.HandleClosestPreceding(id)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: HandleClosestPreceding(%s) = %s, route table says %s", n.Ref(), FmtID(id), got, want)
				}
				if legacy := legacyClosestPreceding(n, id); got != legacy {
					t.Fatalf("%s: HandleClosestPreceding(%s) = %s, plain scan says %s", n.Ref(), FmtID(id), got, legacy)
				}
			}
		}
	}
}

// headOnlyRoute is the resolution loop as it stood before every hop
// read its whole successor list: only the origin consults its own list;
// a remote hop checks its first successor alone, else forwards to its
// closest preceding candidate. It covers the healthy-ring paths only (a
// failed fetch or suspect entry is an error) and reports the owner, the
// hops and the route tables it fetched, for comparison with Lookup.
func headOnlyRoute(n *Node, id ID) (owner Ref, hops, fetches int, err error) {
	if n.Owns(id) {
		return n.ref, 0, 0, nil
	}
	prev := n.ref
	for _, s := range n.SuccessorList() {
		if s.IsZero() || n.Suspect(s.ID) {
			break
		}
		if BetweenRightIncl(prev.ID, s.ID, id) {
			return s, 1, 0, nil
		}
		prev = s
	}
	cur := n.ref
	for step := 0; step < maxLookupSteps; step++ {
		succ := n.successor()
		var cands []Ref
		if cur.ID == n.ref.ID {
			next, _ := n.HandleClosestPreceding(id)
			cands = []Ref{next}
		} else {
			fetches++
			tbl, err := n.client.RouteTable(cur.Addr)
			if err != nil {
				return Ref{}, hops, fetches, err
			}
			succ, cands = tbl.Succs[0], tbl.Cands
		}
		if BetweenRightIncl(cur.ID, succ.ID, id) {
			if succ.ID == cur.ID {
				return succ, hops, fetches, nil
			}
			return succ, hops + 1, fetches, nil
		}
		next := firstBetween(cands, cur, id)
		if next.ID == cur.ID {
			if n.ownsRemote(succ, id) {
				return succ, hops + 1, fetches, nil
			}
			next = succ
		}
		cur = next
		hops++
	}
	return Ref{}, hops, fetches, ErrNotFound
}

// TestLookupMatchesBruteForce is the routing property test: on stable
// rings of every size class (smaller than the successor list, one past
// it, and several times it), every origin resolves 2,000 seeded
// identifiers to their brute-force successor, in no more hops and with
// no more route-table fetches than the head-only loop took — and on
// rings larger than the list, strictly fewer fetches in total.
func TestLookupMatchesBruteForce(t *testing.T) {
	for _, size := range []int{2, 3, 8, 9, 16, 50, 200} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			nodes, mem := buildRing(t, size)
			cc := newCountClient(mem)
			sorted := make([]Ref, len(nodes))
			for i, n := range nodes {
				sorted[i] = n.Ref()
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
			ownerOf := func(id ID) Ref {
				i := sort.Search(len(sorted), func(i int) bool { return sorted[i].ID >= id })
				return sorted[i%len(sorted)]
			}
			rng := rand.New(rand.NewSource(int64(size)))
			ids := make([]ID, 2000)
			for i := range ids {
				ids[i] = rng.Uint32()
			}
			var fetches, oldFetches, hopSum, oldHopSum int
			for _, origin := range nodes {
				origin.client = cc
				for _, id := range ids {
					want := ownerOf(id)
					oldOwner, oldHops, oldFetched, err := headOnlyRoute(origin, id)
					if err != nil || oldOwner != want {
						t.Fatalf("head-only route from %s for %s = %s, %v; want %s", origin.Ref(), FmtID(id), oldOwner, err, want)
					}
					cc.reset()
					got, hops, err := origin.Lookup(id, nil, nil)
					if err != nil || got != want {
						t.Fatalf("Lookup(%s) from %s = %s, %v; want %s", FmtID(id), origin.Ref(), got, err, want)
					}
					fetched := 0
					for method, byAddr := range cc.calls {
						for _, k := range byAddr {
							if method != "RouteTable" {
								t.Fatalf("Lookup(%s) from %s made %d %s calls on a stable ring", FmtID(id), origin.Ref(), k, method)
							}
							fetched += k
						}
					}
					if hops > oldHops || fetched > oldFetched {
						t.Fatalf("Lookup(%s) from %s: %d hops and %d fetches, head-only loop %d and %d",
							FmtID(id), origin.Ref(), hops, fetched, oldHops, oldFetched)
					}
					fetches += fetched
					oldFetches += oldFetched
					hopSum += hops
					oldHopSum += oldHops
				}
			}
			lookups := float64(len(nodes) * len(ids))
			t.Logf("N=%d: %.3f hops and %.3f fetches per lookup, head-only loop %.3f and %.3f",
				size, float64(hopSum)/lookups, float64(fetches)/lookups, float64(oldHopSum)/lookups, float64(oldFetches)/lookups)
			if size > DefaultSuccessors+1 && fetches >= oldFetches {
				t.Errorf("N=%d: %d fetches, head-only loop %d: reading remote lists saved nothing", size, fetches, oldFetches)
			}
		})
	}
}

// TestLookupRoutesAroundSuspectInRemoteList: an identifier whose owner
// appears deep in a remote hop's successor list, with that owner
// suspected by the origin (its calls to it failed), must not resolve to
// the suspect — the lookup routes around it to the next live node,
// which holds the dead node's arc.
func TestLookupRoutesAroundSuspectInRemoteList(t *testing.T) {
	nodes, mem := buildRing(t, 50)
	rng := rand.New(rand.NewSource(17))
	for tries := 0; tries < 10000; tries++ {
		origin := nodes[rng.Intn(len(nodes))]
		id := rng.Uint32()
		owner := ownerOf(nodes, id)
		_, oldHops, _, err := headOnlyRoute(origin, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, hops, _ := origin.Lookup(id, nil, nil); hops >= oldHops || hops < 2 {
			continue // not resolved from a remote list entry past the first
		}
		mem.setDown(owner.Addr, true)
		defer mem.setDown(owner.Addr, false)
		origin.MarkSuspect(owner.ID)
		survivors := make([]*Node, 0, len(nodes)-1)
		for _, n := range nodes {
			if n.ID() != owner.ID {
				survivors = append(survivors, n)
			}
		}
		got, _, err := origin.Lookup(id, nil, nil)
		if err != nil {
			t.Fatalf("Lookup(%s) past suspect owner %s: %v", FmtID(id), owner, err)
		}
		if want := ownerOf(survivors, id); got != want {
			t.Fatalf("Lookup(%s) = %s with owner %s suspected, want its live successor %s", FmtID(id), got, owner, want)
		}
		return
	}
	t.Fatal("no lookup resolved from a remote successor list")
}

// TestLookupListWrapsToCur covers successor lists on rings smaller than
// the list, which end at the node itself: an identifier on that last
// arc resolves to the hop holding the list — the origin at 0 hops, or a
// remote hop without a further one.
func TestLookupListWrapsToCur(t *testing.T) {
	nodes, _ := buildRing(t, 3)
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	origin, last := sorted[1], sorted[0]
	if list := origin.SuccessorList(); len(list) != 3 || list[2] != origin.Ref() {
		t.Fatalf("3-node successor list %v does not wrap to %s", list, origin.Ref())
	}
	// A phantom predecessor just behind the origin: Owns no longer
	// covers (last, origin−1], so only the list can resolve it.
	origin.mu.Lock()
	origin.pred = Ref{ID: origin.ID() - 1, Addr: "phantom"}
	origin.mu.Unlock()
	id := last.ID() + 1
	if got, hops, err := origin.Lookup(id, nil, nil); err != nil || got != origin.Ref() || hops != 0 {
		t.Errorf("Lookup(%s) = %s in %d hops, %v; want %s in 0", FmtID(id), got, hops, err, origin.Ref())
	}

	// A remote hop t whose stale list is [u, t]: 250 is on (u, t].
	tRef := Ref{ID: 150, Addr: "t"}
	uRef := Ref{ID: 200, Addr: "u"}
	n := NewNode("origin", &scriptClient{
		tbl: map[string]RouteTable{"t": {Succs: []Ref{uRef, tRef}, Cands: []Ref{uRef}}},
	}, Config{})
	n.ref.ID = 100
	n.pred = Ref{ID: 50, Addr: "p"}
	for k := range n.fingers {
		n.fingers[k] = n.ref
	}
	n.setSuccessor(tRef)
	if got, hops, err := n.Lookup(250, nil, nil); err != nil || got != tRef || hops != 1 {
		t.Errorf("Lookup(250) = %s in %d hops, %v; want %s in 1", got, hops, err, tRef)
	}
}

// countClient counts the calls a node's lookups make, by method and
// target address, and keeps the addresses route tables were fetched
// from in call order.
type countClient struct {
	*memClient
	mu     sync.Mutex
	calls  map[string]map[string]int
	tables []string
}

func newCountClient(m *memClient) *countClient {
	return &countClient{memClient: m, calls: make(map[string]map[string]int)}
}

func (c *countClient) count(method, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls[method] == nil {
		c.calls[method] = make(map[string]int)
	}
	c.calls[method][addr]++
}

func (c *countClient) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = make(map[string]map[string]int)
	c.tables = nil
}

func (c *countClient) RouteTable(addr string) (RouteTable, error) {
	c.count("RouteTable", addr)
	c.mu.Lock()
	c.tables = append(c.tables, addr)
	c.mu.Unlock()
	return c.memClient.RouteTable(addr)
}

func (c *countClient) Successor(addr string) (Ref, error) {
	c.count("Successor", addr)
	return c.memClient.Successor(addr)
}

func (c *countClient) Predecessor(addr string) (Ref, error) {
	c.count("Predecessor", addr)
	return c.memClient.Predecessor(addr)
}

func (c *countClient) SuccessorList(addr string) ([]Ref, error) {
	c.count("SuccessorList", addr)
	return c.memClient.SuccessorList(addr)
}

func (c *countClient) Ping(addr string) error {
	c.count("Ping", addr)
	return c.memClient.Ping(addr)
}

// TestDetourReusesHeldSuccessorList: a lookup that detours around a dead
// node reads the detour from the successor list of the route table it
// already holds, never fetching that list again. Two detours on a
// 50-node ring, each from a remote hop's table: past a suspected owner
// that heads the hop's list, and past a next hop whose route-table
// fetch fails. Each resolves to the dead node's live successor with no
// SuccessorList call.
func TestDetourReusesHeldSuccessorList(t *testing.T) {
	nodes, mem := buildRing(t, 50)
	byAddr := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		byAddr[n.Addr()] = n
	}
	// liveOwner is id's owner once dead is gone.
	liveOwner := func(dead Ref, id ID) Ref {
		survivors := make([]*Node, 0, len(nodes)-1)
		for _, n := range nodes {
			if n.ID() != dead.ID {
				survivors = append(survivors, n)
			}
		}
		return ownerOf(survivors, id)
	}
	// detour runs origin's lookup of id with dead down, suspected by the
	// origin up front or not, and checks the answer and the calls made.
	detour := func(origin *Node, dead Ref, suspect bool, id ID) {
		t.Helper()
		mem.setDown(dead.Addr, true)
		defer mem.setDown(dead.Addr, false)
		if suspect {
			origin.MarkSuspect(dead.ID)
		}
		cc := newCountClient(mem)
		prev := origin.client
		origin.client = cc
		defer func() { origin.client = prev }()
		got, _, err := origin.Lookup(id, nil, nil)
		if err != nil {
			t.Fatalf("Lookup(%s) past %s: %v", FmtID(id), dead, err)
		}
		if want := liveOwner(dead, id); got != want {
			t.Errorf("Lookup(%s) past %s = %s, want its live successor %s", FmtID(id), dead, got, want)
		}
		if n := len(cc.calls["SuccessorList"]); n != 0 {
			t.Errorf("detour past %s fetched successor lists from %v, want none", dead, cc.calls["SuccessorList"])
		}
	}

	rng := rand.New(rand.NewSource(23))
	var suspectDone, deadHopDone bool
	for tries := 0; tries < 10000 && !(suspectDone && deadHopDone); tries++ {
		origin := nodes[rng.Intn(len(nodes))]
		id := rng.Uint32()
		owner := ownerOf(nodes, id)
		cc := newCountClient(mem)
		origin.client = cc
		_, _, err := origin.Lookup(id, nil, nil)
		origin.client = mem
		if err != nil {
			t.Fatal(err)
		}
		path := cc.tables
		if len(path) == 0 {
			continue // resolved from the origin's own list
		}
		last := byAddr[path[len(path)-1]]
		if !suspectDone && last.SuccessorList()[0] == owner {
			// The last remote hop's list starts with the owner: with
			// the owner suspected, that hop's table sends the lookup
			// round it.
			detour(origin, owner, true, id)
			suspectDone = true
			continue
		}
		if !deadHopDone && len(path) >= 2 && path[1] != owner.Addr {
			// The second remote hop dies: its table fetch fails and the
			// first hop's list, held from its table, is the detour map.
			detour(origin, byAddr[path[1]].Ref(), false, id)
			deadHopDone = true
		}
	}
	if !suspectDone || !deadHopDone {
		t.Fatalf("no lookup to detour: suspected owner %v, dead hop %v", suspectDone, deadHopDone)
	}
}

// TestLookupMemoOneTablePerIntermediate checks the per-operation memo on
// a 64-node ring: one operation's five lookups fetch exactly one route
// table per distinct remote intermediate, make no other call, and land
// on the same owners in the same hop counts as unmemoised lookups.
func TestLookupMemoOneTablePerIntermediate(t *testing.T) {
	nodes, mem := buildRing(t, 64)
	rng := rand.New(rand.NewSource(5))
	shared := 0
	for op := 0; op < 40; op++ {
		origin := nodes[rng.Intn(len(nodes))]
		cc := newCountClient(mem)
		origin.client = cc
		ids := make([]ID, 5)
		for i := range ids {
			if op%2 == 0 {
				ids[i] = rng.Uint32()
			} else {
				// Clustered across the ring from origin, so paths overlap.
				ids[i] = origin.ID() + 1<<31 + ID(rng.Intn(1<<24))
			}
		}

		owners := make([]Ref, len(ids))
		hops := make([]int, len(ids))
		fresh := 0
		for i, id := range ids {
			var err error
			owners[i], hops[i], err = origin.Lookup(id, nil, nil)
			if err != nil {
				t.Fatalf("nil-memo Lookup(%s): %v", FmtID(id), err)
			}
		}
		intermediates := cc.calls["RouteTable"]
		for _, k := range intermediates {
			fresh += k
		}

		cc.reset()
		var memo RouteMemo
		for i, id := range ids {
			owner, h, err := origin.Lookup(id, &memo, nil)
			if err != nil {
				t.Fatalf("memo Lookup(%s): %v", FmtID(id), err)
			}
			if owner != owners[i] || h != hops[i] {
				t.Fatalf("memo Lookup(%s) = %s in %d hops, nil-memo %s in %d", FmtID(id), owner, h, owners[i], hops[i])
			}
		}
		for method, byAddr := range cc.calls {
			if method != "RouteTable" && len(byAddr) > 0 {
				t.Fatalf("memo lookups made %s calls: %v", method, byAddr)
			}
		}
		got := cc.calls["RouteTable"]
		if len(got) != len(intermediates) {
			t.Fatalf("tables fetched from %d peers, want the %d intermediates %v", len(got), len(intermediates), intermediates)
		}
		memoCalls := 0
		for addr, k := range got {
			if k != 1 || intermediates[addr] == 0 {
				t.Fatalf("%s asked %d times (intermediate of the nil-memo run: %v), want once", addr, k, intermediates[addr] > 0)
			}
			if addr == origin.Addr() {
				t.Fatal("lookup fetched its own route table over the client")
			}
			memoCalls++
		}
		shared += fresh - memoCalls
	}
	if shared == 0 {
		t.Error("no operation shared an intermediate across its lookups")
	}
}

// BenchmarkLookupOwnList is a lookup that the origin's own successor
// list resolves, as every lookup on a ring of at most nine peers is:
// the origin's table is built on the stack, so it allocates nothing
// (make benchguard pins 0 allocs/op).
func BenchmarkLookupOwnList(b *testing.B) {
	nodes, _ := buildRing(b, 8)
	origin := nodes[0]
	rng := rand.New(rand.NewSource(1))
	ids := make([]ID, 0, 1024)
	for len(ids) < cap(ids) {
		if id := rng.Uint32(); !origin.Owns(id) {
			ids = append(ids, id)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var memo RouteMemo
		if _, hops, err := origin.Lookup(ids[i%len(ids)], &memo, nil); err != nil || hops != 1 {
			b.Fatalf("lookup: %d hops, %v", hops, err)
		}
	}
}
