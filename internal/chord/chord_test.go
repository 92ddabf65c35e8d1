package chord

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestBetween(t *testing.T) {
	cases := []struct {
		a, b, x ID
		want    bool
	}{
		{10, 20, 15, true},
		{10, 20, 10, false},
		{10, 20, 20, false},
		{10, 20, 25, false},
		// Wrapped arc.
		{4000000000, 5, 4100000000, true},
		{4000000000, 5, 3, true},
		{4000000000, 5, 5, false},
		{4000000000, 5, 100, false},
		// Degenerate a == b: whole circle except a.
		{7, 7, 8, true},
		{7, 7, 7, false},
	}
	for _, c := range cases {
		if got := Between(c.a, c.b, c.x); got != c.want {
			t.Errorf("Between(%d,%d,%d) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestBetweenRightIncl(t *testing.T) {
	if !BetweenRightIncl(10, 20, 20) {
		t.Error("right endpoint should be included")
	}
	if BetweenRightIncl(10, 20, 10) {
		t.Error("left endpoint should be excluded")
	}
	if !BetweenRightIncl(4000000000, 5, 5) {
		t.Error("wrapped right endpoint should be included")
	}
}

func TestAddWraps(t *testing.T) {
	if got := Add(0xffffffff, 0); got != 0 {
		t.Errorf("Add(max,0) = %d, want 0 (wrap)", got)
	}
	if got := Add(0, 31); got != 1<<31 {
		t.Errorf("Add(0,31) = %d", got)
	}
}

func TestHashAddrDeterministic(t *testing.T) {
	a, b := HashAddr("10.0.0.1:4000"), HashAddr("10.0.0.1:4000")
	if a != b {
		t.Error("HashAddr not deterministic")
	}
	if HashAddr("10.0.0.1:4000") == HashAddr("10.0.0.2:4000") {
		t.Error("distinct addresses should (almost surely) hash differently")
	}
}

// memClient is a trivial in-package client over a map of nodes, so chord
// tests do not depend on the transport package. It is mutex-guarded so
// Maintainer goroutines can race with test-side fault injection.
type memClient struct {
	mu    sync.Mutex
	nodes map[string]*Node
	down  map[string]bool
}

func newMemClient() *memClient {
	return &memClient{nodes: make(map[string]*Node), down: make(map[string]bool)}
}

func (m *memClient) get(addr string) (*Node, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down[addr] {
		return nil, ErrUnreachable
	}
	n, ok := m.nodes[addr]
	if !ok {
		return nil, ErrUnreachable
	}
	return n, nil
}

func (m *memClient) add(addr string, n *Node) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[addr] = n
}

func (m *memClient) setDown(addr string, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down[addr] = down
}

func (m *memClient) remove(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.nodes, addr)
}

func (m *memClient) Successor(addr string) (Ref, error) {
	n, err := m.get(addr)
	if err != nil {
		return Ref{}, err
	}
	return n.HandleSuccessor()
}

func (m *memClient) Predecessor(addr string) (Ref, error) {
	n, err := m.get(addr)
	if err != nil {
		return Ref{}, err
	}
	return n.HandlePredecessor()
}

func (m *memClient) ClosestPreceding(addr string, id ID) (Ref, error) {
	n, err := m.get(addr)
	if err != nil {
		return Ref{}, err
	}
	return n.HandleClosestPreceding(id)
}

func (m *memClient) FindSuccessor(addr string, id ID) (Ref, error) {
	n, err := m.get(addr)
	if err != nil {
		return Ref{}, err
	}
	return n.HandleFindSuccessor(id)
}

func (m *memClient) Notify(addr string, self Ref) error {
	n, err := m.get(addr)
	if err != nil {
		return err
	}
	return n.HandleNotify(self)
}

func (m *memClient) Ping(addr string) error {
	_, err := m.get(addr)
	return err
}

func (m *memClient) SuccessorList(addr string) ([]Ref, error) {
	n, err := m.get(addr)
	if err != nil {
		return nil, err
	}
	return n.HandleSuccessorList()
}

// buildRing creates n nodes on a shared memClient and installs converged
// state.
func buildRing(t *testing.T, n int) ([]*Node, *memClient) {
	t.Helper()
	client := newMemClient()
	nodes := make([]*Node, 0, n)
	seen := make(map[ID]bool)
	for i := 0; len(nodes) < n; i++ {
		addr := fmt.Sprintf("node-%d", i)
		nd := NewNode(addr, client, Config{})
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

func TestBuildStableRingConverged(t *testing.T) {
	nodes, _ := buildRing(t, 50)
	info, err := VerifyRing(nodes)
	if err != nil {
		t.Fatalf("VerifyRing: %v", err)
	}
	if !info.Converged || info.N != 50 {
		t.Errorf("ring info = %+v", info)
	}
}

func TestSingleNodeRing(t *testing.T) {
	nodes, _ := buildRing(t, 1)
	n := nodes[0]
	if n.Successor().ID != n.ID() {
		t.Error("single node must be its own successor")
	}
	owner, hops, err := n.Lookup(12345, nil)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if owner.ID != n.ID() || hops != 0 {
		t.Errorf("single-node lookup = %v, %d hops", owner, hops)
	}
}

// ownerOf computes the expected owner by brute force.
func ownerOf(nodes []*Node, id ID) Ref {
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	for _, n := range sorted {
		if n.ID() >= id {
			return n.Ref()
		}
	}
	return sorted[0].Ref()
}

func TestLookupCorrectness(t *testing.T) {
	nodes, _ := buildRing(t, 64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		id := rng.Uint32()
		origin := nodes[rng.Intn(len(nodes))]
		got, hops, err := origin.Lookup(id, nil)
		if err != nil {
			t.Fatalf("Lookup(%08x): %v", id, err)
		}
		want := ownerOf(nodes, id)
		if got.ID != want.ID {
			t.Fatalf("Lookup(%08x) = %s, want %s", id, got, want)
		}
		if hops < 0 || hops > M {
			t.Fatalf("Lookup(%08x) took %d hops", id, hops)
		}
	}
}

func TestLookupOwnID(t *testing.T) {
	nodes, _ := buildRing(t, 16)
	for _, n := range nodes {
		got, hops, err := n.Lookup(n.ID(), nil)
		if err != nil {
			t.Fatalf("Lookup(own id): %v", err)
		}
		if got.ID != n.ID() {
			t.Errorf("node %s does not own its own id (got %s)", n.Ref(), got)
		}
		if hops != 0 {
			t.Errorf("looking up own id took %d hops", hops)
		}
	}
}

func TestLookupPathLengthLogarithmic(t *testing.T) {
	nodes, _ := buildRing(t, 256)
	rng := rand.New(rand.NewSource(2))
	total := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		origin := nodes[rng.Intn(len(nodes))]
		_, hops, err := origin.Lookup(rng.Uint32(), nil)
		if err != nil {
			t.Fatal(err)
		}
		total += hops
	}
	mean := float64(total) / trials
	// ½·log2(256) = 4; allow generous slack but catch linear scans.
	if mean < 1 || mean > 8 {
		t.Errorf("mean path length %g for 256 nodes, want ≈ 4", mean)
	}
}

func TestJoinAndStabilize(t *testing.T) {
	client := newMemClient()
	var nodes []*Node
	for i := 0; i < 12; i++ {
		addr := fmt.Sprintf("live-%d", i)
		nd := NewNode(addr, client, Config{})
		client.add(addr, nd)
		if i > 0 {
			if err := nd.Join(nodes[0].Addr()); err != nil {
				t.Fatalf("join %s: %v", addr, err)
			}
		}
		nodes = append(nodes, nd)
		StabilizeAll(nodes, 4)
	}
	StabilizeAll(nodes, 4)
	if _, err := VerifyRing(nodes); err != nil {
		t.Fatalf("ring did not converge: %v", err)
	}
	// Lookups are correct after convergence.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		id := rng.Uint32()
		got, _, err := nodes[rng.Intn(len(nodes))].Lookup(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := ownerOf(nodes, id); got.ID != want.ID {
			t.Fatalf("post-join Lookup(%08x) = %s, want %s", id, got, want)
		}
	}
}

func TestNodeFailureRecovery(t *testing.T) {
	nodes, client := buildRing(t, 20)
	// Kill one node; its predecessor should fail over via successor list.
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	victim := sorted[5]
	pred := sorted[4]
	client.setDown(victim.Addr(), true)

	if err := pred.Stabilize(); err != nil {
		t.Fatalf("stabilize after failure: %v", err)
	}
	if got := pred.Successor(); got.ID == victim.ID() {
		t.Fatalf("predecessor still points at dead node")
	}
	if got, want := pred.Successor().ID, sorted[6].ID(); got != want {
		t.Errorf("failover successor = %s, want %s", FmtID(got), FmtID(want))
	}
	// Predecessor check clears dead predecessors.
	succ := sorted[6]
	succ.CheckPredecessor()
	if p, ok := succ.Predecessor(); ok && p.ID == victim.ID() {
		t.Error("dead predecessor not cleared")
	}
}

func TestGracefulLeave(t *testing.T) {
	nodes, client := buildRing(t, 10)
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	leaver := sorted[3]
	if err := leaver.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	client.remove(leaver.Addr())
	remaining := append(append([]*Node{}, sorted[:3]...), sorted[4:]...)
	StabilizeAll(remaining, 4)
	if _, err := VerifyRing(remaining); err != nil {
		t.Fatalf("ring broken after leave: %v", err)
	}
}

func TestOwns(t *testing.T) {
	nodes, _ := buildRing(t, 8)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		id := rng.Uint32()
		want := ownerOf(nodes, id)
		count := 0
		for _, n := range nodes {
			if n.Owns(id) {
				count++
				if n.ID() != want.ID {
					t.Fatalf("node %s claims %08x, owner is %s", n.Ref(), id, want)
				}
			}
		}
		if count != 1 {
			t.Fatalf("%d nodes claim %08x", count, id)
		}
	}
}

func TestBuildStableRingRejectsDuplicates(t *testing.T) {
	client := newMemClient()
	a := NewNode("dup", client, Config{})
	b := NewNode("dup", client, Config{})
	if err := BuildStableRing([]*Node{a, b}); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestLookupUnreachableRing(t *testing.T) {
	// The ring must be larger than the successor list: arcs the list
	// covers resolve locally without touching the (dead) wire, so only
	// lookups routed through intermediaries can observe the outage.
	nodes, client := buildRing(t, 2*DefaultSuccessors)
	// Take down everything except one origin; lookups through dead nodes
	// must surface an error, not loop.
	origin := nodes[0]
	for _, n := range nodes[1:] {
		client.setDown(n.Addr(), true)
	}
	failed := 0
	for i := 0; i < 50; i++ {
		if _, _, err := origin.Lookup(rand.New(rand.NewSource(int64(i))).Uint32(), nil); err != nil {
			failed++
			if !errors.Is(err, ErrUnreachable) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("unexpected error type: %v", err)
			}
		}
	}
	if failed == 0 {
		t.Error("expected some lookups to fail with the ring down")
	}
}

// TestConcurrentLookups hammers a converged ring from many goroutines;
// run with -race to verify the Node locking discipline.
func TestConcurrentLookups(t *testing.T) {
	nodes, _ := buildRing(t, 32)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := rng.Uint32()
				origin := nodes[rng.Intn(len(nodes))]
				got, _, err := origin.Lookup(id, nil)
				if err != nil {
					errs <- err
					return
				}
				if want := ownerOf(nodes, id); got.ID != want.ID {
					errs <- fmt.Errorf("Lookup(%08x) = %s, want %s", id, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentLookupsDuringStabilization interleaves lookups with
// maintenance on the same nodes.
func TestConcurrentLookupsDuringStabilization(t *testing.T) {
	nodes, _ := buildRing(t, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				StabilizeAll(nodes, 1)
			}
		}
	}()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		id := rng.Uint32()
		got, _, err := nodes[rng.Intn(len(nodes))].Lookup(id, nil)
		if err != nil {
			t.Fatalf("Lookup(%08x) during stabilization: %v", id, err)
		}
		if want := ownerOf(nodes, id); got.ID != want.ID {
			t.Fatalf("Lookup(%08x) = %s, want %s", id, got, want)
		}
	}
	close(stop)
	wg.Wait()
}
