package main

import (
	"fmt"
	"sort"
	"time"

	"p2prange"
	"p2prange/internal/chord"
	"p2prange/internal/transport"
)

// ringAddrs returns n distinct fixed loopback addresses derived from the
// seed. A chord position is SHA-1 of the address, so fixing the addresses
// fixes the ring layout: the same seed always builds the same ring.
//
// Candidate ports are drawn from the seed until one gives a balanced ring,
// where no peer owns more than twice its fair share of the identifier
// space. A seed thus varies the layout without varying how lopsided it
// is; on 8 or 16 peers a lopsided ring alone moves hops and RPCs per
// lookup by more than a tenth.
func ringAddrs(seed int64, n int) []string {
	addrs := make([]string, n)
	for k := uint64(0); ; k++ {
		port := 20000 + int(mix(uint64(seed)+k<<32)%10000)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.%d:%d", i+1, port)
		}
		if balanced(addrs) || k == 10000 {
			return addrs
		}
	}
}

// balanced reports whether every arc between consecutive ring positions
// is at most twice the mean arc.
func balanced(addrs []string) bool {
	m, err := newRingModel(addrs)
	if err != nil {
		return false
	}
	limit := 2 * (uint64(1) << chord.M) / uint64(len(m.refs))
	for i := range m.refs {
		if uint64(chord.Distance(m.at(i-1).ID, m.at(i).ID)) > limit {
			return false
		}
	}
	return true
}

// mix is a 64-bit finalizer (splitmix64) for deriving values from seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ringModel is the converged chord state computed from the addresses
// alone: what every peer's successor, predecessor, successor list and
// fingers must be once stabilization has finished.
type ringModel struct {
	refs  []chord.Ref // ring order
	index map[string]int
}

func newRingModel(addrs []string) (ringModel, error) {
	m := ringModel{index: make(map[string]int, len(addrs))}
	for _, a := range addrs {
		m.refs = append(m.refs, chord.Ref{ID: chord.HashAddr(a), Addr: a})
	}
	sort.Slice(m.refs, func(i, j int) bool { return m.refs[i].ID < m.refs[j].ID })
	for i, r := range m.refs {
		if i > 0 && r.ID == m.refs[i-1].ID {
			return m, fmt.Errorf("addresses %s and %s share chord position %s", r.Addr, m.refs[i-1].Addr, chord.FmtID(r.ID))
		}
		m.index[r.Addr] = i
	}
	return m, nil
}

func (m ringModel) at(i int) chord.Ref { return m.refs[((i%len(m.refs))+len(m.refs))%len(m.refs)] }

// owner returns the converged owner of identifier id.
func (m ringModel) owner(id chord.ID) chord.Ref {
	i := sort.Search(len(m.refs), func(i int) bool { return m.refs[i].ID >= id })
	return m.at(i)
}

// successorList mirrors chord's refreshSuccessorList on the converged
// ring: walk successors until the list is full or the walk wraps.
func (m ringModel) successorList(i int) []chord.Ref {
	self, head := m.at(i), m.at(i+1)
	list := []chord.Ref{head}
	cur := i + 1
	for len(list) < chord.DefaultSuccessors && m.at(cur).ID != self.ID {
		next := m.at(cur + 1)
		if next.ID == head.ID {
			break
		}
		list = append(list, next)
		cur++
	}
	return list
}

// closestPreceding mirrors chord's HandleClosestPreceding over the
// converged fingers and successor list of peer i.
func (m ringModel) closestPreceding(i int, id chord.ID) chord.Ref {
	self := m.at(i)
	for k := chord.M - 1; k >= 0; k-- {
		f := m.owner(chord.Add(self.ID, uint(k)))
		if chord.Between(self.ID, id, f.ID) {
			return f
		}
	}
	succs := m.successorList(i)
	for j := len(succs) - 1; j >= 0; j-- {
		if chord.Between(self.ID, id, succs[j].ID) {
			return succs[j]
		}
	}
	return self
}

// divergence reports the first way the live ring differs from the model,
// or "" once it has converged. Successors are read through the public
// LivePeer API; predecessors, successor lists and routing tables through
// the chord RPCs every peer serves. A routing table is checked by asking
// each peer for the closest preceding node of every other peer's
// position, which pins every finger the lookups will use.
func (m ringModel) divergence(peers []*p2prange.LivePeer, cc transport.ChordClient) string {
	for _, p := range peers {
		i := m.index[p.Addr()]
		if got, want := p.Successor(), m.at(i+1); got != want {
			return fmt.Sprintf("%s: successor %s, want %s", p.Addr(), got, want)
		}
	}
	for _, p := range peers {
		i := m.index[p.Addr()]
		pred, err := cc.Predecessor(p.Addr())
		if want := m.at(i - 1); err != nil || pred != want {
			return fmt.Sprintf("%s: predecessor %s (%v), want %s", p.Addr(), pred, err, want)
		}
		list, err := cc.SuccessorList(p.Addr())
		if want := m.successorList(i); err != nil || !sameRefs(list, want) {
			return fmt.Sprintf("%s: successor list %v (%v), want %v", p.Addr(), list, err, want)
		}
		for j := range m.refs {
			if j == i {
				continue
			}
			id := m.refs[j].ID + 1
			got, err := cc.ClosestPreceding(p.Addr(), id)
			if want := m.closestPreceding(i, id); err != nil || got != want {
				return fmt.Sprintf("%s: closest preceding %s is %s (%v), want %s", p.Addr(), chord.FmtID(id), got, err, want)
			}
		}
	}
	return ""
}

func sameRefs(a, b []chord.Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// startRing boots one live peer per address, each joining through the
// first, and waits until the ring matches its model. A bind failure is an
// error: the layout must never silently fall back to an OS-chosen port.
func startRing(addrs []string, cfg func(i int) p2prange.LiveConfig, timeout time.Duration) ([]*p2prange.LivePeer, error) {
	model, err := newRingModel(addrs)
	if err != nil {
		return nil, err
	}
	peers := make([]*p2prange.LivePeer, 0, len(addrs))
	for i, a := range addrs {
		bootstrap := ""
		if i > 0 {
			bootstrap = addrs[0]
		}
		p, err := p2prange.StartPeer(a, bootstrap, cfg(i))
		if err != nil {
			closeRing(peers)
			return nil, fmt.Errorf("start peer %s: %w", a, err)
		}
		peers = append(peers, p)
	}
	caller := transport.NewTCPCaller()
	defer caller.Close()
	cc := transport.ChordClient{Caller: caller}
	deadline := time.Now().Add(timeout)
	for {
		bad := model.divergence(peers, cc)
		if bad == "" {
			return peers, nil
		}
		if time.Now().After(deadline) {
			closeRing(peers)
			return nil, fmt.Errorf("ring did not converge within %s: %s", timeout, bad)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// closeRing stops every peer and waits for its goroutines to exit.
func closeRing(peers []*p2prange.LivePeer) {
	for _, p := range peers {
		p.Close()
	}
}
