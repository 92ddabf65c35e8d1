package ship

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"p2prange/internal/store"
	"p2prange/internal/wal"
)

// tokenCounter hands out process-unique boot tokens so a pusher can
// detect that the peer it has been shipping to was replaced (restarted)
// and its applied state is gone.
var tokenCounter atomic.Uint64

// ServiceConfig wires a Service to one peer's storage.
type ServiceConfig struct {
	// Log is the WAL this peer serves to followers. Nil is valid for a
	// memory-only peer: it then accepts ApplyReq pushes but cannot be
	// subscribed to.
	Log *wal.Log
	// Store receives pushed puts (ApplyReq path), committed through
	// Store.Commit before the batch is acknowledged. Nil refuses pushes.
	Store *store.Store
}

const (
	// maxEntryBytes caps one EntriesResp: 1MiB plus one record.
	maxEntryBytes = 1<<20 + wal.MaxRecord
	// maxChunkBytes caps one SnapshotChunkResp; followers ask for
	// exactly this much.
	maxChunkBytes = 256 << 10
)

// FollowerStatus is one subscribed follower's progress, for /status.
type FollowerStatus struct {
	Addr        string     `json:"addr"`
	Cursor      wal.Cursor `json:"cursor"`
	LagBytes    int64      `json:"lag_bytes"`
	Snapshot    bool       `json:"snapshot,omitempty"` // currently seeding
	IdleSeconds int64      `json:"idle_seconds"`
}

// Service is the owner side of the shipping protocol plus the receiver
// side of replica pushes. Register its Handle with peer.RegisterAux.
// It serves strictly by pull — nothing here can block the owner's
// group-commit path on a slow or stalled follower; such a follower
// simply stops pulling, and its only owner-side footprint is a
// retention pin bounded by the ShipRetain budget.
type Service struct {
	cfg   ServiceConfig
	token uint64

	mu        sync.Mutex
	followers map[string]*followerState
}

type followerState struct {
	cursor   wal.Cursor
	snapshot bool
	lastSeen time.Time
}

// NewService builds a Service. See ServiceConfig.
func NewService(cfg ServiceConfig) *Service {
	return &Service{
		cfg:       cfg,
		token:     tokenCounter.Add(1),
		followers: make(map[string]*followerState),
	}
}

// Handle dispatches shipping requests; the peer.AuxHandler contract:
// handled=false for foreign message types.
func (s *Service) Handle(req any) (resp any, handled bool, err error) {
	switch r := req.(type) {
	case SubscribeReq:
		resp, err = s.subscribe(r)
	case EntriesReq:
		resp, err = s.entries(r)
	case SnapshotChunkReq:
		resp, err = s.snapshotChunk(r)
	case CursorAckReq:
		resp, err = s.ack(r)
	case ApplyReq:
		resp, err = s.applyPush(r)
	default:
		return nil, false, nil
	}
	return resp, true, err
}

// ErrNotShipping reports a stream request against a peer with no WAL.
var ErrNotShipping = errors.New("ship: peer has no log to ship")

func (s *Service) subscribe(r SubscribeReq) (SubscribeResp, error) {
	if s.cfg.Log == nil {
		return SubscribeResp{}, ErrNotShipping
	}
	if r.Follower == "" {
		return SubscribeResp{}, badFrame("subscribe without follower identity")
	}
	lg := s.cfg.Log
	if !r.Cursor.IsZero() && lg.Servable(r.Cursor) {
		s.touch(r.Follower, r.Cursor, false)
		lg.Pin(r.Follower, r.Cursor)
		return SubscribeResp{Tail: true, Next: r.Cursor}, nil
	}
	// Full history needed (fresh follower, or a cursor retention let go
	// of). Seed from the sealed segment when one exists; otherwise the
	// whole history is still in WAL files and the follower tails from
	// the oldest one, wiping first.
	if seq, size, ok := lg.SegmentInfo(); ok {
		metSnapSeeds.Inc()
		s.touch(r.Follower, wal.Cursor{Seq: seq + 1}, true)
		lg.Pin(r.Follower, wal.Cursor{Seq: seq + 1})
		return SubscribeResp{SnapSeq: seq, SnapSize: size}, nil
	}
	start, ok := lg.TailStart(wal.Cursor{Seq: 1})
	if !ok {
		return SubscribeResp{}, errors.New("ship: no servable history")
	}
	s.touch(r.Follower, start, false)
	lg.Pin(r.Follower, start)
	return SubscribeResp{Tail: true, Reseed: true, Next: start}, nil
}

func (s *Service) entries(r EntriesReq) (EntriesResp, error) {
	if s.cfg.Log == nil {
		return EntriesResp{}, ErrNotShipping
	}
	if r.Follower == "" {
		return EntriesResp{}, badFrame("entries without follower identity")
	}
	lg := s.cfg.Log
	max := int(r.MaxBytes)
	if max <= 0 || max > maxEntryBytes {
		max = maxEntryBytes
	}
	// The request cursor is also the follower's progress claim: advance
	// its retention pin there before reading, so the files the batch
	// comes from stay put across a racing fold.
	lg.Pin(r.Follower, r.Cursor)
	data, next, err := lg.ReadEntries(r.Cursor, max)
	if errors.Is(err, wal.ErrCursorGone) {
		metCursorResets.Inc()
		s.touch(r.Follower, r.Cursor, false)
		return EntriesResp{Reset: true}, nil
	}
	if err != nil {
		return EntriesResp{}, err
	}
	s.touch(r.Follower, next, false)
	metShipBatches.Inc()
	metShipBytes.Add(uint64(len(data)))
	return EntriesResp{
		Data: data,
		Next: next,
		More: next.Less(lg.End()),
	}, nil
}

func (s *Service) snapshotChunk(r SnapshotChunkReq) (SnapshotChunkResp, error) {
	if s.cfg.Log == nil {
		return SnapshotChunkResp{}, ErrNotShipping
	}
	max := int(r.MaxBytes)
	if max <= 0 || max > maxChunkBytes {
		max = maxChunkBytes
	}
	data, total, err := s.cfg.Log.ReadSegmentChunk(r.Seq, r.Off, max)
	if errors.Is(err, wal.ErrSegmentGone) {
		metCursorResets.Inc()
		return SnapshotChunkResp{Gone: true}, nil
	}
	if err != nil {
		return SnapshotChunkResp{}, err
	}
	if r.Follower != "" {
		s.touch(r.Follower, wal.Cursor{Seq: r.Seq + 1}, true)
	}
	metSnapChunks.Inc()
	metSnapBytes.Add(uint64(len(data)))
	return SnapshotChunkResp{Data: data, CRC: ChunkCRC(data), Total: total}, nil
}

func (s *Service) ack(r CursorAckReq) (CursorAckResp, error) {
	if r.Follower == "" {
		return CursorAckResp{}, badFrame("ack without follower identity")
	}
	metAcks.Inc()
	if r.Leave {
		s.mu.Lock()
		delete(s.followers, r.Follower)
		metFollowers.Set(int64(len(s.followers)))
		s.mu.Unlock()
		if s.cfg.Log != nil {
			s.cfg.Log.Unpin(r.Follower)
		}
		return CursorAckResp{}, nil
	}
	s.touch(r.Follower, r.Cursor, false)
	if s.cfg.Log != nil {
		s.cfg.Log.Pin(r.Follower, r.Cursor)
	}
	return CursorAckResp{}, nil
}

// applyPush applies a pushed record batch (replica ship-first sync)
// into the local store: OpPut records only — the owner's evictions and
// arc handoffs are its own capacity and ownership decisions, and
// replaying them here could delete this replica's legitimate data.
func (s *Service) applyPush(r ApplyReq) (ApplyResp, error) {
	applied := 0
	if len(r.Data) > 0 {
		if s.cfg.Store == nil {
			return ApplyResp{}, errors.New("ship: peer accepts no pushed records")
		}
		// Pushed puts keep their version and origin stamps (store.Put's
		// first-wins / higher-version-replaces admission applies),
		// exactly as recovery restores them.
		n, err := wal.WalkBuffer(r.Data, func(rec wal.Record) error {
			if rec.Op == wal.OpPut {
				s.cfg.Store.Put(rec.ID, rec.Part)
				applied++
			}
			return nil
		})
		if err != nil || n != len(r.Data) {
			return ApplyResp{}, badFrame("corrupt pushed batch from %s (%d/%d bytes valid)", r.Origin, n, len(r.Data))
		}
		if err := s.cfg.Store.Commit(); err != nil {
			return ApplyResp{}, err
		}
		metApplied.Add(uint64(applied))
		metAppliedBytes.Add(uint64(len(r.Data)))
	}
	return ApplyResp{Token: s.token, Applied: applied}, nil
}

func (s *Service) touch(follower string, c wal.Cursor, snapshot bool) {
	s.mu.Lock()
	st := s.followers[follower]
	if st == nil {
		st = &followerState{}
		s.followers[follower] = st
		metFollowers.Set(int64(len(s.followers)))
	}
	st.cursor = c
	st.snapshot = snapshot
	st.lastSeen = time.Now()
	s.mu.Unlock()
}

// Followers reports every subscribed follower's progress and lag, for
// /status and rangetop. It also refreshes the ship.max_lag_bytes gauge.
func (s *Service) Followers() []FollowerStatus {
	s.mu.Lock()
	out := make([]FollowerStatus, 0, len(s.followers))
	for addr, st := range s.followers {
		out = append(out, FollowerStatus{
			Addr:        addr,
			Cursor:      st.cursor,
			Snapshot:    st.snapshot,
			IdleSeconds: int64(time.Since(st.lastSeen) / time.Second),
		})
	}
	s.mu.Unlock()
	var maxLag int64
	if s.cfg.Log != nil {
		for i := range out {
			out[i].LagBytes = s.cfg.Log.Lag(out[i].Cursor)
			if out[i].LagBytes > maxLag {
				maxLag = out[i].LagBytes
			}
		}
	}
	metMaxLagBytes.Set(maxLag)
	return out
}
