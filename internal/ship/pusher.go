package ship

import (
	"errors"
	"slices"
	"sync"

	"p2prange/internal/wal"
)

// Pusher is the replica-sync side of shipping: instead of a digest
// walk (O(store) rows exchanged even when nothing changed), the owner
// pushes the WAL records written since the last round to each
// successor. Digest anti-entropy stays behind it as repair of last
// resort — the pusher reports ok=false whenever it cannot prove the
// receiver saw every record (fresh pairing, receiver restart, cursor
// outrun by retention), and the caller falls back to a digest round.
type Pusher struct {
	log  *wal.Log
	self string
	// keep filters which put records ship (nil ships every put).
	// Replica sync sets it to the ownership predicate so records this
	// peer merely replicates are not re-pushed onward — copies must not
	// cascade replica-to-replica, mirroring the digest path's Owns
	// filter.
	keep func(wal.Record) bool

	mu    sync.Mutex
	peers map[string]*pushState
}

type pushState struct {
	cursor    wal.Cursor
	token     uint64
	baselined bool
}

// NewPusher builds a Pusher shipping from log, identifying its pins as
// self's. keep filters which put records ship (nil ships every put);
// see Pusher.keep.
func NewPusher(log *wal.Log, self string, keep func(wal.Record) bool) *Pusher {
	return &Pusher{log: log, self: self, keep: keep, peers: make(map[string]*pushState)}
}

// maxPushRounds bounds one SyncTo call so a sync pass over many
// successors cannot stall on one far-behind receiver; the next pass
// continues from the saved cursor.
const maxPushRounds = 16

// SyncTo ships the records written since the last successful round to
// addr via call, applying them remotely (puts only). It returns the
// record count pushed and ok=true when the receiver is provably caught
// up to our durable watermark — ok=false means the caller must run a
// digest round for this peer (and the pusher has re-baselined so the
// NEXT round ships incrementally again).
func (p *Pusher) SyncTo(addr string, call func(req any) (any, error)) (int, bool) {
	p.mu.Lock()
	st := p.peers[addr]
	if st == nil {
		st = &pushState{}
		p.peers[addr] = st
	}
	baselined := st.baselined
	cur := st.cursor
	p.mu.Unlock()

	if !baselined {
		// First pairing with this receiver: we cannot know what it
		// already holds, so let the digest round level it, and ship
		// only what lands after this watermark.
		return p.rebaseline(addr, st, call)
	}

	total := 0
	for round := 0; round < maxPushRounds; round++ {
		data, next, err := p.log.ReadEntries(cur, 256<<10)
		if errors.Is(err, wal.ErrCursorGone) {
			// Retention outran this receiver's cursor — we can no
			// longer prove continuity. Digest repair, then resume
			// incremental from the current watermark.
			metPushResets.Inc()
			_, _ = p.rebaseline(addr, st, call)
			return total, false
		}
		if err != nil {
			return total, false
		}

		n, tok, err := p.apply(call, p.filter(data))
		if err != nil {
			return total, false
		}
		p.mu.Lock()
		restarted := st.token != 0 && tok != st.token
		st.token = tok
		p.mu.Unlock()
		if restarted {
			// The receiver restarted since our last round: everything
			// we shipped it lives only in its lost memory/journal.
			metPushFallbacks.Inc()
			_, _ = p.rebaseline(addr, st, call)
			return total, false
		}
		total += n
		metPushRounds.Inc()
		metPushRecords.Add(uint64(n))
		metPushBytes.Add(uint64(len(data)))

		cur = next
		p.pin(addr, st, cur)
		if !cur.Less(p.log.End()) {
			return total, true
		}
	}
	// Budget exhausted mid-catch-up: progress is saved, but this round
	// cannot vouch for full convergence.
	return total, false
}

// filter rebuilds a raw WAL byte range into its pushable subset: put
// records passing keep. Evicts and arc drops never ship — they are the
// owner's local capacity and ownership decisions, not the receiver's
// (which would ignore them anyway). The input is CRC-validated WAL
// bytes, so the walk cannot fail.
func (p *Pusher) filter(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	var out []byte
	_, _ = wal.WalkBuffer(data, func(r wal.Record) error {
		if r.Op != wal.OpPut || (p.keep != nil && !p.keep(r)) {
			return nil
		}
		out = wal.AppendFramed(out, &r)
		return nil
	})
	return out
}

// apply sends one record batch (possibly empty — the empty call still
// fetches the receiver's boot token) and returns the applied count and
// token.
func (p *Pusher) apply(call func(req any) (any, error), data []byte) (int, uint64, error) {
	resp, err := call(ApplyReq{Origin: p.self, Data: data})
	if err != nil {
		return 0, 0, err
	}
	ar, ok := resp.(ApplyResp)
	if !ok {
		return 0, 0, errors.New("ship: bad apply response")
	}
	return ar.Applied, ar.Token, nil
}

// rebaseline points addr's cursor at the current durable watermark and
// records the receiver's boot token. Always returns ok=false: the gap
// before the new watermark is the digest round's to close.
func (p *Pusher) rebaseline(addr string, st *pushState, call func(req any) (any, error)) (int, bool) {
	_, tok, err := p.apply(call, nil)
	if err != nil {
		return 0, false
	}
	p.mu.Lock()
	st.token = tok
	st.baselined = true
	p.mu.Unlock()
	p.pin(addr, st, p.log.End())
	return 0, false
}

func (p *Pusher) pin(addr string, st *pushState, c wal.Cursor) {
	p.mu.Lock()
	st.cursor = c
	p.mu.Unlock()
	p.log.Pin("push:"+addr, c)
}

// Forget drops addr's push state and retention pin (successor left the
// replica set).
func (p *Pusher) Forget(addr string) {
	p.mu.Lock()
	delete(p.peers, addr)
	p.mu.Unlock()
	p.log.Unpin("push:" + addr)
}

// Retain forgets every receiver not in addrs, the successors the last
// sync pass shipped to.
func (p *Pusher) Retain(addrs []string) {
	p.mu.Lock()
	var gone []string
	for addr := range p.peers {
		if !slices.Contains(addrs, addr) {
			gone = append(gone, addr)
		}
	}
	p.mu.Unlock()
	for _, addr := range gone {
		p.Forget(addr)
	}
}
