package sim

import (
	"fmt"

	"p2prange/internal/chord"
	"p2prange/internal/peer"
)

// Churn operations: clusters built by NewCluster can grow, shrink, and
// suffer crashes mid-run, exercising the live join/stabilize/handoff
// protocol inside the simulation (the paper's evaluation uses static
// rings; these operations back the failure-injection tests).

// Join adds one new peer to the running cluster through the real join
// protocol and reclaims the arc it now owns (see admit).
func (c *Cluster) Join() (*peer.Host, error) {
	if len(c.Peers) == 0 {
		return nil, fmt.Errorf("sim: cannot join an empty cluster")
	}
	ids := make(map[chord.ID]bool, len(c.Peers))
	for _, p := range c.Peers {
		ids[p.Node().ID()] = true
	}
	n := len(c.Peers)
	h, err := c.boot(n, uniqueAddr(func(attempt int) string { return fmt.Sprintf("join-%d-%d", n, attempt) }, ids))
	if err != nil {
		return nil, err
	}
	if err := c.admit(h); err != nil {
		return nil, err
	}
	return h, nil
}

// admit serves a booted peer on the cluster's network, joins it through
// the real join protocol (bootstrap via an existing peer, then
// synchronous stabilization rounds across the cluster) and reclaims the
// arc it now owns.
func (c *Cluster) admit(h *peer.Host) error {
	h.ServeMemory(c.Net)
	if err := h.Node().Join(c.Peers[0].Addr()); err != nil {
		h.Close()
		return err
	}
	c.Peers = append(c.Peers, h)
	c.Stabilize(4)
	return h.ReclaimArc()
}

// Leave removes peer i gracefully: buckets hand off to the successor,
// neighbors re-link, and the peer shuts down.
func (c *Cluster) Leave(i int) error {
	if i < 0 || i >= len(c.Peers) {
		return fmt.Errorf("sim: no peer %d", i)
	}
	p := c.Peers[i]
	succ := p.Node().Successor()
	if succ.ID != p.Node().ID() {
		if err := p.HandoffTo(succ); err != nil {
			return err
		}
	}
	if err := p.Node().Leave(); err != nil {
		return err
	}
	p.Close()
	c.Peers = append(c.Peers[:i], c.Peers[i+1:]...)
	c.Stabilize(4)
	return nil
}

// Crash fails peer i abruptly: no handoff, no notification; its
// memory-only descriptors are lost (a durable peer's WAL keeps what it
// committed) and the ring must repair via successor lists.
func (c *Cluster) Crash(i int) error {
	if i < 0 || i >= len(c.Peers) {
		return fmt.Errorf("sim: no peer %d", i)
	}
	c.drop(i)
	c.Stabilize(6)
	return nil
}

// drop crashes peer i and removes it with no repair: every finger and
// successor pointer at it goes stale, as when live traffic races
// background stabilization.
func (c *Cluster) drop(i int) {
	c.Peers[i].Crash()
	c.Peers = append(c.Peers[:i], c.Peers[i+1:]...)
}

// Stabilize drives the full maintenance cycle (stabilize, predecessor
// checks, all fingers) for the given rounds across every peer.
func (c *Cluster) Stabilize(rounds int) { chord.StabilizeAll(peer.Nodes(c.Peers), rounds) }

// VerifyRing checks ring consistency across the current peers.
func (c *Cluster) VerifyRing() error {
	_, err := chord.VerifyRing(peer.Nodes(c.Peers))
	return err
}
