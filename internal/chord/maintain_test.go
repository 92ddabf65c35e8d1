package chord

import (
	"fmt"
	"log"
	"os"
	"sort"
	"testing"
	"time"
)

// TestMaintainerConvergesRing exercises the timer-driven maintenance
// goroutines: nodes join one by one and the background Maintainers alone
// (no synchronous StabilizeAll) must converge the ring.
func TestMaintainerConvergesRing(t *testing.T) {
	client := newMemClient()
	cfg := MaintainerConfig{
		StabilizeEvery:        2 * time.Millisecond,
		FixFingersEvery:       500 * time.Microsecond,
		CheckPredecessorEvery: 5 * time.Millisecond,
	}
	var nodes []*Node
	var maints []*Maintainer
	defer func() {
		for _, m := range maints {
			m.Stop()
		}
	}()
	for i := 0; i < 6; i++ {
		addr := fmt.Sprintf("bg-%d", i)
		nd := NewNode(addr, client, Config{})
		client.add(addr, nd)
		if i > 0 {
			if err := nd.Join(nodes[0].Addr()); err != nil {
				t.Fatalf("join %s: %v", addr, err)
			}
		}
		nodes = append(nodes, nd)
		maints = append(maints, StartMaintainer(nd, cfg))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := VerifyRing(nodes)
		if err == nil {
			err = successorListsConverged(nodes)
		}
		if err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("ring did not converge under background maintenance: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Lookups work purely off background-maintained state.
	for i := 0; i < 100; i++ {
		id := ID(i) * 40000000
		got, _, err := nodes[i%len(nodes)].Lookup(id, nil)
		if err != nil {
			t.Fatalf("Lookup(%08x): %v", id, err)
		}
		if want := ownerOf(nodes, id); got.ID != want.ID {
			t.Fatalf("Lookup(%08x) = %s, want %s", id, got, want)
		}
	}
}

// successorListsConverged checks every node's successor list against
// the sorted ring: each entry must be the true successor of the entry
// before it. VerifyRing checks only successor and predecessor pointers,
// but lookups also shortcut through the successor list, which stabilize
// refreshes one round after the successor pointer settles.
func successorListsConverged(nodes []*Node) error {
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	next := make(map[ID]ID, len(sorted))
	for i, nd := range sorted {
		next[nd.ID()] = sorted[(i+1)%len(sorted)].ID()
	}
	for _, nd := range nodes {
		prev := nd.ID()
		for _, s := range nd.SuccessorList() {
			if s.IsZero() {
				break
			}
			if s.ID != next[prev] {
				return fmt.Errorf("node %s successor list %v: %s follows %s, want %s",
					nd.Ref(), nd.SuccessorList(), s, FmtID(prev), FmtID(next[prev]))
			}
			prev = s.ID
		}
	}
	return nil
}

// TestMaintainerStopTerminates verifies Stop halts all three loops.
func TestMaintainerStopTerminates(t *testing.T) {
	client := newMemClient()
	nd := NewNode("solo", client, Config{})
	client.add("solo", nd)
	m := StartMaintainer(nd, MaintainerConfig{
		StabilizeEvery:        time.Millisecond,
		FixFingersEvery:       time.Millisecond,
		CheckPredecessorEvery: time.Millisecond,
		Logger:                log.New(os.Stderr, "", 0),
	})
	done := make(chan struct{})
	go func() {
		m.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Maintainer.Stop did not return")
	}
}

// TestMaintainerSurvivesDeadSuccessor verifies the background loops keep
// running (and log rather than crash) when a neighbor dies.
func TestMaintainerSurvivesDeadSuccessor(t *testing.T) {
	client := newMemClient()
	a := NewNode("ma", client, Config{})
	b := NewNode("mb", client, Config{})
	client.add("ma", a)
	client.add("mb", b)
	if err := b.Join("ma"); err != nil {
		t.Fatal(err)
	}
	StabilizeAll([]*Node{a, b}, 4)
	m := StartMaintainer(a, MaintainerConfig{
		StabilizeEvery:        time.Millisecond,
		FixFingersEvery:       time.Millisecond,
		CheckPredecessorEvery: time.Millisecond,
	})
	defer m.Stop()
	client.setDown("mb", true)
	time.Sleep(50 * time.Millisecond)
	// a must have fallen back to a one-node ring and still answer.
	if got := a.Successor(); got.ID != a.ID() {
		t.Errorf("successor after neighbor death = %s, want self", got)
	}
	owner, _, err := a.Lookup(12345, nil)
	if err != nil || owner.ID != a.ID() {
		t.Errorf("lookup after collapse = %v, %v", owner, err)
	}
}
