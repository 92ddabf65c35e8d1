package chord

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"p2prange/internal/metrics"
)

// buildRingCfg is buildRing with a per-node Config.
func buildRingCfg(t *testing.T, n int, cfg Config) ([]*Node, *memClient) {
	t.Helper()
	client := newMemClient()
	nodes := make([]*Node, 0, n)
	seen := make(map[ID]bool)
	for i := 0; len(nodes) < n; i++ {
		addr := "cfg-node-" + FmtID(ID(i))
		nd := NewNode(addr, client, cfg)
		if seen[nd.ID()] {
			continue
		}
		seen[nd.ID()] = true
		client.add(addr, nd)
		nodes = append(nodes, nd)
	}
	if err := BuildStableRing(nodes); err != nil {
		t.Fatalf("BuildStableRing: %v", err)
	}
	return nodes, client
}

// findRoutedLookup picks an origin and identifier whose first hop is a
// third node (neither the origin nor the owner), so killing that hop
// exercises mid-lookup rerouting.
func findRoutedLookup(t *testing.T, nodes []*Node) (origin *Node, id ID, firstHop, owner Ref) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		id = rng.Uint32()
		origin = nodes[rng.Intn(len(nodes))]
		owner = ownerOf(nodes, id)
		if origin.Owns(id) || owner.ID == origin.ID() {
			continue
		}
		fh, err := origin.HandleClosestPreceding(id)
		if err != nil {
			t.Fatal(err)
		}
		if fh.ID == origin.ID() || fh.ID == owner.ID {
			continue
		}
		return origin, id, fh, owner
	}
	t.Fatal("no suitable origin/id pair found")
	return nil, 0, Ref{}, Ref{}
}

// TestLookupReroutesAroundDeadNode is the acceptance scenario: kill a
// node on the lookup path; the lookup must still resolve the correct
// owner by detouring through successor lists, and report the extra hops.
func TestLookupReroutesAroundDeadNode(t *testing.T) {
	stats := &metrics.RouteStats{}
	nodes, client := buildRingCfg(t, 32, Config{Stats: stats})
	origin, id, firstHop, owner := findRoutedLookup(t, nodes)

	got, healthyHops, err := origin.Lookup(id, nil)
	if err != nil {
		t.Fatalf("healthy lookup: %v", err)
	}
	if got.ID != owner.ID {
		t.Fatalf("healthy lookup = %s, want %s", got, owner)
	}

	client.setDown(firstHop.Addr, true)
	got, hops, err := origin.Lookup(id, nil)
	if err != nil {
		t.Fatalf("lookup with dead hop %s: %v", firstHop, err)
	}
	if got.ID != owner.ID {
		t.Errorf("rerouted lookup = %s, want %s", got, owner)
	}
	if hops < healthyHops {
		t.Errorf("rerouted lookup reported %d hops, healthy path was %d", hops, healthyHops)
	}
	snap := stats.Snapshot()
	if snap.Rerouted == 0 {
		t.Error("no reroutes counted")
	}
	if snap.FailedLookups != 0 {
		t.Errorf("%d lookups failed", snap.FailedLookups)
	}
	if !origin.Suspect(firstHop.ID) {
		t.Error("dead hop not marked suspect")
	}
}

// TestLookupUnreachableWithoutRerouting pins the ablation: the same
// dead-hop scenario with fault tolerance disabled must surface
// ErrUnreachable instead of resolving.
func TestLookupUnreachableWithoutRerouting(t *testing.T) {
	stats := &metrics.RouteStats{}
	nodes, client := buildRingCfg(t, 32, Config{DisableRerouting: true, Stats: stats})
	origin, id, firstHop, _ := findRoutedLookup(t, nodes)
	client.setDown(firstHop.Addr, true)
	_, _, err := origin.Lookup(id, nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("lookup with rerouting disabled = %v, want ErrUnreachable", err)
	}
	if origin.FaultTolerant() {
		t.Error("FaultTolerant() true with rerouting disabled")
	}
	if got := stats.Snapshot(); got.FailedLookups == 0 || got.Rerouted != 0 {
		t.Errorf("stats = %+v, want failures and no reroutes", got)
	}
}

// TestLookupDeadOwnerReroutes covers the owner itself crashing: once the
// origin suspects it (as the peer protocol does after a failed call),
// re-resolution must return the next live successor, which now owns the
// dead node's arc.
func TestLookupDeadOwnerReroutes(t *testing.T) {
	nodes, client := buildRingCfg(t, 24, Config{})
	rng := rand.New(rand.NewSource(13))
	var origin *Node
	var id ID
	var owner Ref
	for {
		id = rng.Uint32()
		origin = nodes[rng.Intn(len(nodes))]
		owner = ownerOf(nodes, id)
		if owner.ID != origin.ID() && !origin.Owns(id) {
			break
		}
	}
	client.setDown(owner.Addr, true)
	origin.MarkSuspect(owner.ID)

	survivors := make([]*Node, 0, len(nodes)-1)
	for _, n := range nodes {
		if n.ID() != owner.ID {
			survivors = append(survivors, n)
		}
	}
	want := ownerOf(survivors, id)
	got, hops, err := origin.Lookup(id, nil)
	if err != nil {
		t.Fatalf("lookup with dead owner: %v", err)
	}
	if got.ID != want.ID {
		t.Errorf("lookup = %s, want the dead owner's successor %s", got, want)
	}
	if hops == 0 {
		t.Error("detoured lookup reported 0 hops")
	}
}

// scriptClient returns canned protocol answers, for driving Lookup into
// states only reachable through mid-lookup mutation on a live ring.
type scriptClient struct {
	succ map[string]Ref
	cp   map[string]Ref
	pred map[string]Ref
}

func (s *scriptClient) get(m map[string]Ref, addr string) (Ref, error) {
	if r, ok := m[addr]; ok {
		return r, nil
	}
	return Ref{}, ErrUnreachable
}
func (s *scriptClient) Successor(addr string) (Ref, error) { return s.get(s.succ, addr) }
func (s *scriptClient) Predecessor(addr string) (Ref, error) {
	if r, ok := s.pred[addr]; ok {
		return r, nil
	}
	return Ref{}, ErrNoPredecessor
}
func (s *scriptClient) ClosestPreceding(addr string, id ID) (Ref, error) {
	return s.get(s.cp, addr)
}
func (s *scriptClient) FindSuccessor(addr string, id ID) (Ref, error) {
	return Ref{}, ErrUnreachable
}
func (s *scriptClient) Notify(addr string, self Ref) error       { return nil }
func (s *scriptClient) Ping(addr string) error                   { return nil }
func (s *scriptClient) SuccessorList(addr string) ([]Ref, error) { return nil, ErrUnreachable }

// TestLookupStaleStateHopAccounting is the regression for the hop
// double-count on the stale-state fallthrough. A node whose tables are
// mid-update can answer ClosestPreceding with itself while its successor
// already covers the identifier; the lookup must confirm ownership with
// the successor and charge exactly one hop for that final edge, not
// wander the ring charging extra hops. Scripted because the state is
// only reachable through a mid-lookup race on a live ring.
func TestLookupStaleStateHopAccounting(t *testing.T) {
	tRef := Ref{ID: 150, Addr: "t"}
	sRef := Ref{ID: 240, Addr: "s"}
	client := &scriptClient{
		succ: map[string]Ref{"t": sRef},
		// Stale: t names itself closest preceding although s covers id.
		cp:   map[string]Ref{"t": tRef},
		pred: map[string]Ref{"s": {ID: 245, Addr: "q"}},
	}
	n := NewNode("origin", client, Config{})
	n.ref.ID = 100
	n.pred = Ref{ID: 50, Addr: "p"}
	for k := range n.fingers {
		n.fingers[k] = n.ref
	}
	n.setSuccessor(tRef)

	// id 250 sits in (245, 240] — the wrapped arc owned by s.
	owner, hops, err := n.Lookup(250, nil)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if owner.ID != sRef.ID {
		t.Errorf("owner = %s, want %s", owner, sRef)
	}
	if hops != 2 {
		t.Errorf("hops = %d, want 2 (origin->t->s, final edge charged once)", hops)
	}
}

// TestLookupPinnedHopCounts pins the Fig.12-relevant base cases: a
// node's own arc costs 0 hops and its direct successor's arc exactly 1.
func TestLookupPinnedHopCounts(t *testing.T) {
	nodes, _ := buildRing(t, 16)
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	for i, n := range sorted {
		if _, hops, err := n.Lookup(n.ID(), nil); err != nil || hops != 0 {
			t.Errorf("own-arc lookup = %d hops, %v; want 0, nil", hops, err)
		}
		succ := sorted[(i+1)%len(sorted)]
		got, hops, err := n.Lookup(succ.ID(), nil)
		if err != nil {
			t.Fatalf("successor lookup: %v", err)
		}
		if got.ID != succ.ID() || hops != 1 {
			t.Errorf("lookup(successor) = %s in %d hops, want %s in 1", got, hops, succ.Ref())
		}
	}
}

func TestSuspectTTL(t *testing.T) {
	client := newMemClient()
	n := NewNode("ttl-node", client, Config{SuspectTTL: 20 * time.Millisecond})
	n.MarkSuspect(42)
	if !n.Suspect(42) {
		t.Fatal("fresh suspect not reported")
	}
	time.Sleep(40 * time.Millisecond)
	if n.Suspect(42) {
		t.Error("suspect did not expire after TTL")
	}
	n.MarkSuspect(43)
	n.ForgetSuspects()
	if n.Suspect(43) {
		t.Error("ForgetSuspects left a suspect behind")
	}
	if n.Suspect(n.ID()) {
		t.Error("node suspects itself")
	}
}

func TestClosestPrecedingSkipsSuspects(t *testing.T) {
	nodes, _ := buildRing(t, 20)
	origin, id, firstHop, _ := findRoutedLookup(t, nodes)
	origin.MarkSuspect(firstHop.ID)
	next, err := origin.HandleClosestPreceding(id)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID == firstHop.ID {
		t.Errorf("suspect %s still returned as closest preceding", firstHop)
	}
}

func TestMaintainerJitterBounds(t *testing.T) {
	m := &Maintainer{cfg: MaintainerConfig{Jitter: 0.2}}
	rng := rand.New(rand.NewSource(1))
	const every = time.Second
	varied := false
	for i := 0; i < 500; i++ {
		d := m.jittered(rng, every)
		if d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Fatalf("jittered period %v outside [0.8s, 1.2s]", d)
		}
		if d != every {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter produced only the base period")
	}
	// Config defaulting: zero means DefaultJitter, negative disables.
	if got := (&MaintainerConfig{}).withDefaults().Jitter; got != DefaultJitter {
		t.Errorf("default jitter = %v, want %v", got, DefaultJitter)
	}
	off := &Maintainer{cfg: (&MaintainerConfig{Jitter: -1}).withDefaults()}
	for i := 0; i < 10; i++ {
		if d := off.jittered(rng, every); d != every {
			t.Fatalf("negative Jitter still jittered: %v", d)
		}
	}
}
