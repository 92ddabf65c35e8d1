package ship

import (
	"errors"
	"sync/atomic"

	"p2prange/internal/store"
	"p2prange/internal/wal"
)

// tokenCounter hands out process-unique boot tokens so a pusher can
// detect that the peer it has been shipping to was replaced (restarted)
// and its applied state is gone.
var tokenCounter atomic.Uint64

// Service is the receiver side of replica pushes. Register its Handle
// with peer.RegisterAux.
type Service struct {
	// st receives pushed puts, committed through Store.Commit before
	// the batch is acknowledged. Nil refuses pushes.
	st    *store.Store
	token uint64
}

// NewService builds a Service applying pushes into st (nil refuses
// them).
func NewService(st *store.Store) *Service {
	return &Service{st: st, token: tokenCounter.Add(1)}
}

// Handle dispatches shipping requests; the peer.AuxHandler contract:
// handled=false for foreign message types.
func (s *Service) Handle(req any) (resp any, handled bool, err error) {
	r, ok := req.(ApplyReq)
	if !ok {
		return nil, false, nil
	}
	resp, err = s.applyPush(r)
	return resp, true, err
}

// applyPush applies a pushed record batch (replica ship-first sync)
// into the local store: OpPut records only — the owner's evictions and
// arc handoffs are its own capacity and ownership decisions, and
// replaying them here could delete this replica's legitimate data.
func (s *Service) applyPush(r ApplyReq) (ApplyResp, error) {
	applied := 0
	if len(r.Data) > 0 {
		if s.st == nil {
			return ApplyResp{}, errors.New("ship: peer accepts no pushed records")
		}
		// Pushed puts keep their version and origin stamps (store.Put's
		// first-wins / higher-version-replaces admission applies),
		// exactly as recovery restores them.
		n, err := wal.WalkBuffer(r.Data, func(rec wal.Record) error {
			if rec.Op == wal.OpPut {
				s.st.Put(rec.ID, rec.Part)
				applied++
			}
			return nil
		})
		if err != nil || n != len(r.Data) {
			return ApplyResp{}, badFrame("corrupt pushed batch from %s (%d/%d bytes valid)", r.Origin, n, len(r.Data))
		}
		if err := s.st.Commit(); err != nil {
			return ApplyResp{}, err
		}
		metApplied.Add(uint64(applied))
		metAppliedBytes.Add(uint64(len(r.Data)))
	}
	return ApplyResp{Token: s.token, Applied: applied}, nil
}
