package chord

import (
	"math/rand"
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
// rings with stale fingers and suspect nodes, the first candidate of
// HandleRouteTable strictly between the node and id is exactly what
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
			if tbl[0] != n.Successor() {
				t.Fatalf("%s: table head %s, want successor %s", n.Ref(), tbl[0], n.Successor())
			}
			for i, r := range tbl[1:] {
				if r.IsZero() || n.Suspect(r.ID) || (i > 0 && r == tbl[i]) {
					t.Fatalf("%s: candidate %d is %s: zero, suspect or an adjacent duplicate", n.Ref(), i, r)
				}
			}
			for q := 0; q < 50; q++ {
				id := rng.Uint32()
				want := n.Ref()
				for _, r := range tbl[1:] {
					if Between(n.ID(), id, r.ID) {
						want = r
						break
					}
				}
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

// countClient counts the calls a node's lookups make, by method and
// target address.
type countClient struct {
	*memClient
	mu    sync.Mutex
	calls map[string]map[string]int
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
}

func (c *countClient) RouteTable(addr string) ([]Ref, error) {
	c.count("RouteTable", addr)
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
