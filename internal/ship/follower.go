package ship

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"p2prange/internal/obs"
	"p2prange/internal/store"
	"p2prange/internal/wal"
)

// FollowerConfig wires a Follower to an owner and to local storage.
type FollowerConfig struct {
	// Owner is the address shipped from (display/logging only; the
	// Call closure already knows where to dial).
	Owner string
	// Self identifies this follower to the owner; its retention pin and
	// /status row key on the owner side.
	Self string
	// Call sends one request frame to the owner and returns the typed
	// response (peer.Client.Call shaped).
	Call func(req any) (any, error)
	// Store is the local store shipped records apply to — all ops, full
	// fidelity, exactly as recovery replays them. A reseed (snapshot or
	// tail-from-oldest) wipes it first, journaled like any other
	// mutation, and each applied batch passes Store.Commit before the
	// cursor advances past it.
	Store *store.Store
	// Dir, when set, holds the resumable snapshot part file so a
	// follower crash mid-seed continues instead of restarting.
	Dir string
}

const (
	// maxBatch caps one EntriesReq.
	maxBatch = 256 << 10
	// pollInterval is the tail poll period for Run.
	pollInterval = time.Second
)

// FollowerStats is a Follower's progress snapshot for /status.
type FollowerStats struct {
	Owner     string     `json:"owner"`
	State     string     `json:"state"` // idle | snapshot | tail
	Cursor    wal.Cursor `json:"cursor"`
	Applied   uint64     `json:"applied_records"`
	Bytes     uint64     `json:"applied_bytes"`
	Snapshots uint64     `json:"snapshots"`
	Resumes   uint64     `json:"snapshot_resumes"`
	Resets    uint64     `json:"cursor_resets"`
	Errors    uint64     `json:"errors"`
	LastError string     `json:"last_error,omitempty"`
}

// Follower subscribes to an owner's WAL and keeps a local store
// converged with it: snapshot seed when too far behind, record tail
// otherwise. One goroutine (Run) per followed owner.
type Follower struct {
	cfg FollowerConfig

	mu     sync.Mutex
	cursor wal.Cursor
	state  string
	stats  FollowerStats
	stop   chan struct{}
	done   chan struct{}

	// walker is the reusable batch parser for the apply hot path; only
	// the single CatchUp/Run goroutine touches it.
	walker *wal.Walker
	apply  func(wal.Record) error // wal.StoreRestorer(cfg.Store)
}

// NewFollower builds a Follower. See FollowerConfig.
func NewFollower(cfg FollowerConfig) *Follower {
	return &Follower{cfg: cfg, state: "idle", walker: wal.NewWalker(), apply: wal.StoreRestorer(cfg.Store)}
}

func (f *Follower) setState(s string) {
	f.mu.Lock()
	f.state = s
	f.mu.Unlock()
}

func (f *Follower) setCursor(c wal.Cursor) {
	f.mu.Lock()
	f.cursor = c
	f.mu.Unlock()
}

// Stats snapshots the follower's progress.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Owner = f.cfg.Owner
	st.State = f.state
	st.Cursor = f.cursor
	return st
}

func (f *Follower) call(req any) (any, error) {
	resp, err := f.cfg.Call(req)
	if err != nil {
		f.mu.Lock()
		f.stats.Errors++
		f.stats.LastError = err.Error()
		f.mu.Unlock()
	}
	return resp, err
}

// CatchUp drives one full convergence pass: subscribe at the current
// cursor, seed a snapshot if the owner says the cursor's history is
// gone, then tail records until the owner reports nothing newer. It
// returns the number of records applied. Safe to call repeatedly; the
// cursor persists across calls (in memory — a restarted follower
// resubscribes from zero and is reseeded).
func (f *Follower) CatchUp() (int, error) {
	total := 0
	// A reseed response restarts the pass from a zero cursor; bound the
	// restarts so a flapping owner (fold storm) cannot loop us forever.
	for attempt := 0; attempt < 5; attempt++ {
		n, retry, err := f.catchUpOnce()
		total += n
		if err != nil || !retry {
			return total, err
		}
	}
	return total, fmt.Errorf("ship: %s keeps resetting our cursor; giving up this pass", f.cfg.Owner)
}

func (f *Follower) catchUpOnce() (applied int, retry bool, err error) {
	f.mu.Lock()
	cur := f.cursor
	f.mu.Unlock()

	resp, err := f.call(SubscribeReq{Follower: f.cfg.Self, Cursor: cur})
	if err != nil {
		return 0, false, err
	}
	sub, ok := resp.(SubscribeResp)
	if !ok {
		return 0, false, fmt.Errorf("ship: bad subscribe response %T", resp)
	}

	switch {
	case sub.Tail && sub.Reseed:
		// Whole history lives in WAL files; wipe and tail from the
		// oldest record.
		f.cfg.Store.ExtractArc(0, 0)
		obs.Events.Emitf(obs.SevWarn, "ship", "%s wiped local state to re-tail %s from the oldest record", f.cfg.Self, f.cfg.Owner)
		cur = sub.Next
	case sub.Tail:
		cur = sub.Next
	default:
		// Too far behind: seed from the sealed segment, then tail from
		// the seal point.
		n, c, err := f.seedSnapshot(sub.SnapSeq, sub.SnapSize)
		if errors.Is(err, errSnapshotGone) {
			// The segment was replaced by a newer fold mid-stream;
			// resubscribe for the new one.
			f.setCursor(wal.Cursor{})
			return 0, true, nil
		}
		if err != nil {
			return 0, false, err
		}
		applied += n
		cur = c
	}

	f.setCursor(cur)
	f.setState("tail")
	defer f.setState("idle")

	n, retry, err := f.tail(cur)
	return applied + n, retry, err
}

// tail pulls entry batches from cur until the owner reports no more,
// applying every record in order. Returns retry=true when the owner
// reset our cursor (retention outran us) — the caller resubscribes.
func (f *Follower) tail(cur wal.Cursor) (int, bool, error) {
	applied := 0
	sinceAck := 0
	for {
		resp, err := f.call(EntriesReq{Follower: f.cfg.Self, Cursor: cur, MaxBytes: maxBatch})
		if err != nil {
			return applied, false, err
		}
		ent, ok := resp.(EntriesResp)
		if !ok {
			return applied, false, fmt.Errorf("ship: bad entries response %T", resp)
		}
		if ent.Reset {
			f.mu.Lock()
			f.stats.Resets++
			f.cursor = wal.Cursor{}
			f.mu.Unlock()
			metCursorResets.Inc()
			obs.Events.Emitf(obs.SevWarn, "ship", "%s reset follower %s: retention outran cursor seq=%d, resubscribing", f.cfg.Owner, f.cfg.Self, cur.Seq)
			return applied, true, nil
		}
		if len(ent.Data) > 0 {
			n, err := f.applyBatch(ent.Data)
			applied += n
			sinceAck += n
			if err != nil {
				return applied, false, err
			}
		}
		cur = ent.Next
		f.setCursor(cur)
		if sinceAck >= 4096 {
			_, _ = f.call(CursorAckReq{Follower: f.cfg.Self, Cursor: cur})
			sinceAck = 0
		}
		if !ent.More {
			// Final ack records our resting cursor as the owner's
			// retention floor for this follower.
			_, _ = f.call(CursorAckReq{Follower: f.cfg.Self, Cursor: cur})
			return applied, false, nil
		}
	}
}

// applyBatch walks one shipped record batch and applies every record —
// all ops, the same order recovery would replay them — then runs the
// commit barrier so the cursor never advances past unapplied bytes.
func (f *Follower) applyBatch(data []byte) (int, error) {
	applied := 0
	n, err := f.walker.Walk(data, func(r wal.Record) error {
		applied++
		return f.apply(r)
	})
	if err == nil && n != len(data) {
		err = fmt.Errorf("ship: torn batch from %s (%d/%d bytes valid)", f.cfg.Owner, n, len(data))
	}
	if err != nil {
		return applied, err
	}
	if err := f.cfg.Store.Commit(); err != nil {
		return applied, err
	}
	f.mu.Lock()
	f.stats.Applied += uint64(applied)
	f.stats.Bytes += uint64(len(data))
	f.mu.Unlock()
	metApplied.Add(uint64(applied))
	metAppliedBytes.Add(uint64(len(data)))
	return applied, nil
}

var errSnapshotGone = errors.New("ship: snapshot segment replaced mid-stream")

// seedSnapshot streams segment seq (size bytes) chunk by chunk into a
// part file (resumable across follower crashes when cfg.Dir is set),
// verifies the assembled image record-by-record, wipes local state and
// applies the segment's records, and returns the seal-point cursor the
// tail starts from.
func (f *Follower) seedSnapshot(seq uint64, size int64) (int, wal.Cursor, error) {
	f.setState("snapshot")
	defer f.setState("idle")
	metSnapSeeds.Inc()
	f.mu.Lock()
	f.stats.Snapshots++
	f.mu.Unlock()

	var part string
	var data []byte
	if f.cfg.Dir != "" {
		part = filepath.Join(f.cfg.Dir, fmt.Sprintf("ship-seg-%016x.part", seq))
		if prev, err := os.ReadFile(part); err == nil && int64(len(prev)) <= size {
			data = prev
			if len(prev) > 0 {
				metSnapResumes.Inc()
				f.mu.Lock()
				f.stats.Resumes++
				f.mu.Unlock()
			}
		}
		// Part files for older segments are stale; drop them.
		stale, _ := filepath.Glob(filepath.Join(f.cfg.Dir, "ship-seg-*.part"))
		for _, p := range stale {
			if p != part {
				os.Remove(p)
			}
		}
	}

	for int64(len(data)) < size {
		resp, err := f.call(SnapshotChunkReq{
			Follower: f.cfg.Self,
			Seq:      seq,
			Off:      int64(len(data)),
			MaxBytes: maxChunkBytes,
		})
		if err != nil {
			return 0, wal.Cursor{}, err
		}
		ch, ok := resp.(SnapshotChunkResp)
		if !ok {
			return 0, wal.Cursor{}, fmt.Errorf("ship: bad chunk response %T", resp)
		}
		if ch.Gone {
			metSnapRestarts.Inc()
			if part != "" {
				os.Remove(part)
			}
			return 0, wal.Cursor{}, errSnapshotGone
		}
		if len(ch.Data) == 0 {
			return 0, wal.Cursor{}, fmt.Errorf("ship: empty chunk at %d/%d from %s", len(data), size, f.cfg.Owner)
		}
		if ChunkCRC(ch.Data) != ch.CRC {
			return 0, wal.Cursor{}, fmt.Errorf("ship: chunk CRC mismatch at %d from %s", len(data), f.cfg.Owner)
		}
		data = append(data, ch.Data...)
		if part != "" {
			// Persist progress so a crash here resumes at this offset.
			if err := appendFileTo(part, ch.Data, int64(len(data))-int64(len(ch.Data))); err != nil {
				return 0, wal.Cursor{}, err
			}
		}
	}

	// Full structural verify before touching local state: every record
	// CRC, the seal, the count — the same gate recovery applies.
	recs, err := wal.ParseSegment(data, seq)
	if err != nil {
		if part != "" {
			os.Remove(part)
		}
		return 0, wal.Cursor{}, fmt.Errorf("ship: seeded segment failed verification: %w", err)
	}

	f.cfg.Store.ExtractArc(0, 0) // wipe, journaled like any mutation
	for _, r := range recs {
		_ = f.apply(r) // a store restorer never fails
	}
	if err := f.cfg.Store.Commit(); err != nil {
		return 0, wal.Cursor{}, err
	}
	f.mu.Lock()
	f.stats.Applied += uint64(len(recs))
	f.stats.Bytes += uint64(len(data))
	f.mu.Unlock()
	if part != "" {
		os.Remove(part)
	}

	cur := wal.Cursor{Seq: seq + 1}
	_, _ = f.call(CursorAckReq{Follower: f.cfg.Self, Cursor: cur})
	obs.Events.Emitf(obs.SevInfo, "ship", "%s seeded from snapshot segment %016x of %s: %d record(s), %d byte(s)", f.cfg.Self, seq, f.cfg.Owner, len(recs), len(data))
	return len(recs), cur, nil
}

// appendFileTo appends data to path, but only if the file is currently
// at off — a cheap idempotence guard for the resume path.
func appendFileTo(path string, data []byte, off int64) error {
	fd, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return err
	}
	if st.Size() != off {
		return fmt.Errorf("ship: part file %s moved underneath us (%d != %d)", path, st.Size(), off)
	}
	if _, err := fd.WriteAt(data, off); err != nil {
		return err
	}
	return fd.Sync()
}

// Run polls CatchUp every pollInterval until Stop. Errors are recorded in
// Stats and retried next tick — an owner crash mid-stream is just a
// failed pass.
func (f *Follower) Run() {
	f.mu.Lock()
	if f.stop != nil {
		f.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	f.stop, f.done = stop, done
	f.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(pollInterval)
		defer t.Stop()
		for {
			_, _ = f.CatchUp()
			select {
			case <-stop:
				_, _ = f.call(CursorAckReq{Follower: f.cfg.Self, Leave: true})
				return
			case <-t.C:
			}
		}
	}()
}

// Stop halts Run and tells the owner to drop our retention pin.
func (f *Follower) Stop() {
	f.mu.Lock()
	stop, done := f.stop, f.done
	f.stop, f.done = nil, nil
	f.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
