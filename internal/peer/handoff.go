package peer

import (
	"fmt"

	"p2prange/internal/chord"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// Bucket handoff protocol: when ring ownership changes, descriptor buckets
// move to their new owner. A departing peer pushes everything to its
// successor (HandoffReq); a freshly joined peer pulls the arc it now owns
// from its successor (TransferArcReq).
type (
	// HandoffReq delivers buckets to their new owner.
	HandoffReq struct {
		Buckets map[uint32][]store.Partition
	}
	// TransferArcReq asks a peer to relinquish the buckets on (From, To].
	TransferArcReq struct {
		From, To uint32
	}
	// TransferArcResp carries the relinquished buckets.
	TransferArcResp struct {
		Buckets map[uint32][]store.Partition
	}
)

func init() {
	transport.RegisterType(HandoffReq{})
	transport.RegisterType(TransferArcReq{})
	transport.RegisterType(TransferArcResp{})
}

// handleHandoff absorbs pushed buckets. The OK ack tells the departing
// peer it may forget the data, so the absorbed copies must be durable
// first.
func (p *Peer) handleHandoff(r HandoffReq) (any, error) {
	p.store.Absorb(r.Buckets)
	if err := p.commitDurable(); err != nil {
		return nil, fmt.Errorf("peer: handoff not durable: %w", err)
	}
	return transport.OKResp{}, nil
}

// handleTransferArc extracts and returns the requested arc. The arc
// drop is committed before the buckets leave: once the response is out,
// the requester owns the data, and a crash here must not resurrect it.
// If the commit fails the arc is put back and the transfer refused.
func (p *Peer) handleTransferArc(r TransferArcReq) (any, error) {
	buckets := p.store.ExtractArc(r.From, r.To)
	if err := p.commitDurable(); err != nil {
		p.store.Absorb(buckets)
		return nil, fmt.Errorf("peer: arc transfer not durable: %w", err)
	}
	return TransferArcResp{Buckets: buckets}, nil
}

// HandoffTo pushes every bucket this peer holds to the given peer;
// called on graceful departure.
func (p *Peer) HandoffTo(to chord.Ref) error {
	all := p.store.ExtractArc(p.node.ID(), p.node.ID()) // whole circle: everything
	if len(all) == 0 {
		return nil
	}
	if _, err := p.Call(to, HandoffReq{Buckets: all}); err != nil {
		// Put the buckets back so data is not lost on a failed handoff.
		p.store.Absorb(all)
		p.commitDurable()
		return fmt.Errorf("peer: handoff to %s: %w", to, err)
	}
	// Persist the local drop so a post-handoff crash does not resurrect
	// buckets the successor now owns (harmless duplicates, but noisy).
	p.commitDurable()
	return nil
}

// ReclaimArc pulls from the successor the buckets this peer now owns:
// identifiers in (predecessor, self]. Call it after joining once the ring
// has stabilized.
func (p *Peer) ReclaimArc() error {
	succ := p.node.Successor()
	if succ.ID == p.node.ID() {
		return nil
	}
	pred, ok := p.node.Predecessor()
	if !ok {
		return fmt.Errorf("peer: reclaim before stabilization (no predecessor)")
	}
	resp, err := p.Call(succ, TransferArcReq{From: pred.ID, To: p.node.ID()})
	if err != nil {
		return fmt.Errorf("peer: reclaim from %s: %w", succ, err)
	}
	ta, okResp := resp.(TransferArcResp)
	if !okResp {
		return transport.BadRequest(resp)
	}
	p.store.Absorb(ta.Buckets)
	// The successor already dropped its copy when it answered, so this
	// peer is now the only holder: commit before treating them as owned.
	if err := p.commitDurable(); err != nil {
		return fmt.Errorf("peer: reclaim not durable: %w", err)
	}
	return nil
}
