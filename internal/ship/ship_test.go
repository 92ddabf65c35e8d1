package ship

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"p2prange/internal/rangeset"
	"p2prange/internal/store"
	"p2prange/internal/wal"
)

func testPart(i int) store.Partition {
	return store.Partition{
		Relation:  "R",
		Attribute: "a",
		Range:     rangeset.Range{Lo: int64(i), Hi: int64(i + 10)},
		Holder:    fmt.Sprintf("peer-%d:4000", i),
		Version:   uint64(i%4 + 1),
		Origin:    fmt.Sprintf("origin-%d", i%3),
	}
}

// ownerPeer is one durable peer under test: store, WAL, and the ship
// service bound to them.
type ownerPeer struct {
	st  *store.Store
	lg  *wal.Log
	svc *Service
}

func newOwner(t *testing.T, dir string, opt wal.Options) *ownerPeer {
	t.Helper()
	opt.Dir = dir
	if opt.CompactEvery == 0 {
		opt.CompactEvery = -1 // folds are explicit in tests
	}
	st := store.New()
	lg, _, err := wal.Open(opt, st)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	o := &ownerPeer{st: st, lg: lg, svc: NewService(ServiceConfig{Log: lg, Store: st})}
	t.Cleanup(func() { o.lg.Close() })
	return o
}

// call adapts the service's aux handler into the Follower's Call shape.
func (o *ownerPeer) call(req any) (any, error) {
	resp, handled, err := o.svc.Handle(req)
	if !handled {
		return nil, fmt.Errorf("unhandled request %T", req)
	}
	return resp, err
}

// put writes one descriptor through the journaled path and commits.
func (o *ownerPeer) put(t *testing.T, i int) {
	t.Helper()
	o.st.Put(store.ID(i%17+1), testPart(i))
	if err := o.lg.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// followerPeer is a follower with its own durable store, applying
// shipped records through the same journaled path recovery uses.
type followerPeer struct {
	st *store.Store
	lg *wal.Log
	fl *Follower
}

func newFollowerPeer(t *testing.T, dir string, call func(any) (any, error)) *followerPeer {
	t.Helper()
	st := store.New()
	lg, _, err := wal.Open(wal.Options{Dir: dir, CompactEvery: -1}, st)
	if err != nil {
		t.Fatalf("Open follower: %v", err)
	}
	f := &followerPeer{st: st, lg: lg}
	f.fl = NewFollower(FollowerConfig{
		Owner: "owner",
		Self:  "follower:1",
		Call:  call,
		Store: st,
		Dir:   dir,
	})
	t.Cleanup(func() { f.lg.Close() })
	return f
}

// fingerprint renders a store's full content — every bucket, every
// descriptor, stamps included — as a canonical string, so two stores
// can be compared for exact equality.
func fingerprint(st *store.Store) string {
	var lines []string
	for _, id := range st.IDs() {
		for _, p := range st.Bucket(id) {
			lines = append(lines, fmt.Sprintf("%d|%s|%s|%d|%d|%s|%d|%s",
				id, p.Relation, p.Attribute, p.Range.Lo, p.Range.Hi, p.Holder, p.Version, p.Origin))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// recoverDir replays a data directory into a fresh store — the local
// recovery a shipped store must be byte-identical to.
func recoverDir(t *testing.T, dir string) *store.Store {
	t.Helper()
	st := store.New()
	lg, _, err := wal.Open(wal.Options{Dir: dir, CompactEvery: -1}, st)
	if err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	lg.Close()
	return st
}

// TestShipTailConvergence drives the happy path: a follower tails the
// owner's WAL and converges, and a later catch-up costs O(new records),
// not O(store).
func TestShipTailConvergence(t *testing.T) {
	o := newOwner(t, t.TempDir(), wal.Options{})
	for i := 0; i < 60; i++ {
		o.put(t, i)
	}
	o.st.Delete(store.ID(3), testPart(2).Key())
	if err := o.lg.Commit(); err != nil {
		t.Fatal(err)
	}

	f := newFollowerPeer(t, t.TempDir(), o.call)
	n, err := f.fl.CatchUp()
	if err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if n == 0 {
		t.Fatal("caught up without applying anything")
	}
	if got, want := fingerprint(f.st), fingerprint(o.st); got != want {
		t.Fatalf("follower store diverges after tail:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	// Incremental: N new writes must ship ~N records, independent of
	// the 60 already replicated.
	for i := 100; i < 110; i++ {
		o.put(t, i)
	}
	n, err = f.fl.CatchUp()
	if err != nil {
		t.Fatalf("incremental CatchUp: %v", err)
	}
	if n != 10 {
		t.Errorf("incremental catch-up applied %d records, want exactly the 10 new ones", n)
	}
	if fingerprint(f.st) != fingerprint(o.st) {
		t.Error("follower store diverges after incremental tail")
	}
	// The follower's own recovery path must reproduce the same store:
	// shipped records went through the journal.
	f.lg.Close()
	if got, want := fingerprint(recoverDir(t, f.fl.cfg.Dir)), fingerprint(o.st); got != want {
		t.Error("follower's OWN recovery diverges from the shipped state")
	}
}

// TestShipSnapshotSeed forces the reseed path: the owner folds with
// retention disabled, so a zero-cursor follower must stream the sealed
// segment and then tail from the seal point. The shipped store must be
// byte-identical to a local recovery of the owner's directory.
func TestShipSnapshotSeed(t *testing.T) {
	dir := t.TempDir()
	o := newOwner(t, dir, wal.Options{ShipRetain: -1})
	for i := 0; i < 80; i++ {
		o.put(t, i)
	}
	if err := o.lg.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-fold writes: the tail the snapshot hands off to.
	for i := 200; i < 220; i++ {
		o.put(t, i)
	}

	f := newFollowerPeer(t, t.TempDir(), o.call)
	if _, err := f.fl.CatchUp(); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if st := f.fl.Stats(); st.Snapshots == 0 {
		t.Error("zero-cursor follower behind a fold should have seeded from the segment")
	}
	if fingerprint(f.st) != fingerprint(o.st) {
		t.Fatal("follower store diverges after snapshot+tail")
	}
	o.lg.Close()
	if got, want := fingerprint(f.st), fingerprint(recoverDir(t, dir)); got != want {
		t.Fatal("snapshot+tail follower is not byte-identical to local recovery")
	}
}

// TestShipCompactionRacingSubscriber runs a follower tail loop
// concurrently with owner writes and folds (run under -race by make
// check). Retention pinning must hand the follower across each seal
// point without skipping or duplicating records: at the end the stores
// are identical.
func TestShipCompactionRacingSubscriber(t *testing.T) {
	dir := t.TempDir()
	o := newOwner(t, dir, wal.Options{})
	f := newFollowerPeer(t, t.TempDir(), o.call)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := f.fl.CatchUp(); err != nil {
				t.Errorf("CatchUp during compaction: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 400; i++ {
		o.put(t, i)
		if i%50 == 49 {
			if err := o.lg.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	if _, err := f.fl.CatchUp(); err != nil {
		t.Fatalf("final CatchUp: %v", err)
	}
	if fingerprint(f.st) != fingerprint(o.st) {
		t.Fatal("follower diverges after racing folds")
	}
	o.lg.Close()
	if fingerprint(f.st) != fingerprint(recoverDir(t, dir)) {
		t.Fatal("follower is not byte-identical to local recovery after racing folds")
	}
}

// TestShipFollowerCrashMidSnapshot kills the follower partway through a
// snapshot stream and restarts it with the same directory: the part
// file resumes (no restart from zero), and the finished store matches
// local recovery.
func TestShipFollowerCrashMidSnapshot(t *testing.T) {
	ownerDir := t.TempDir()
	o := newOwner(t, ownerDir, wal.Options{ShipRetain: -1})
	for i := 0; i < 150; i++ {
		o.put(t, i)
	}
	if err := o.lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	followDir := t.TempDir()
	// First incarnation: the transport dies after a few snapshot chunks.
	chunks := 0
	errCut := errors.New("owner crashed mid-stream")
	cut := func(req any) (any, error) {
		if r, ok := req.(SnapshotChunkReq); ok {
			chunks++
			if chunks > 2 {
				return nil, errCut
			}
			// Tiny chunks so the cut lands mid-segment.
			r.MaxBytes = 512
			req = r
		}
		return o.call(req)
	}
	f1 := newFollowerPeer(t, followDir, cut)
	if _, err := f1.fl.CatchUp(); !errors.Is(err, errCut) {
		t.Fatalf("CatchUp through a dying transport: err=%v, want the cut", err)
	}
	parts, _ := filepath.Glob(filepath.Join(followDir, "ship-seg-*.part"))
	if len(parts) != 1 {
		t.Fatalf("after mid-snapshot crash: %d part files, want 1", len(parts))
	}
	if fi, err := os.Stat(parts[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("part file empty or missing: %v", err)
	}
	f1.lg.Close()

	// Second incarnation, same directory: must resume, not restart.
	f2Store := store.New()
	f2 := NewFollower(FollowerConfig{
		Owner: "owner", Self: "follower:1", Call: o.call,
		Store: f2Store,
		Dir:   followDir,
	})
	if _, err := f2.CatchUp(); err != nil {
		t.Fatalf("resumed CatchUp: %v", err)
	}
	if st := f2.Stats(); st.Resumes == 0 {
		t.Error("second incarnation should have resumed the part file")
	}
	if fingerprint(f2Store) != fingerprint(o.st) {
		t.Fatal("resumed follower diverges from owner")
	}
	o.lg.Close()
	if fingerprint(f2Store) != fingerprint(recoverDir(t, ownerDir)) {
		t.Fatal("resumed follower is not byte-identical to local recovery")
	}
}

// TestShipRetentionResetsCursor pins the reseed state machine: a
// follower that stalls past the retention budget gets Reset from
// EntriesReq, resubscribes from zero, seeds the segment, and still
// converges exactly.
func TestShipRetentionResetsCursor(t *testing.T) {
	dir := t.TempDir()
	o := newOwner(t, dir, wal.Options{ShipRetain: -1})
	for i := 0; i < 40; i++ {
		o.put(t, i)
	}

	f := newFollowerPeer(t, t.TempDir(), o.call)
	if _, err := f.fl.CatchUp(); err != nil {
		t.Fatal(err)
	}

	// The follower stalls; the owner writes on and folds twice. With
	// retention off, the follower's cursor now pre-dates the oldest
	// retained WAL byte. (Unpin first — a live pin would otherwise
	// hold the files within budget; a stalled real follower is
	// eventually evicted the same way.)
	o.lg.Unpin("follower:1")
	for i := 40; i < 90; i++ {
		o.put(t, i)
	}
	if err := o.lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 90; i < 120; i++ {
		o.put(t, i)
	}
	if err := o.lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if _, err := f.fl.CatchUp(); err != nil {
		t.Fatalf("CatchUp after retention outran cursor: %v", err)
	}
	st := f.fl.Stats()
	if st.Resets == 0 && st.Snapshots == 0 {
		t.Error("expected a cursor reset or reseed after retention dropped the tail")
	}
	if fingerprint(f.st) != fingerprint(o.st) {
		t.Fatal("follower diverges after retention-forced reseed")
	}
}

// TestShipRetentionPinsSurviveFold is the opposite case: an active
// follower's pin keeps the folded WAL files on disk (within budget), so
// its tail continues across the fold with no reset and no reseed.
func TestShipRetentionPinsSurviveFold(t *testing.T) {
	o := newOwner(t, t.TempDir(), wal.Options{}) // default 64MiB budget
	for i := 0; i < 40; i++ {
		o.put(t, i)
	}
	f := newFollowerPeer(t, t.TempDir(), o.call)
	if _, err := f.fl.CatchUp(); err != nil {
		t.Fatal(err)
	}

	for i := 40; i < 80; i++ {
		o.put(t, i)
	}
	if err := o.lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n, err := f.fl.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Errorf("tail across pinned fold applied %d records, want 40", n)
	}
	st := f.fl.Stats()
	if st.Resets != 0 || st.Snapshots != 0 {
		t.Errorf("pinned follower should tail across the fold untouched; resets=%d snapshots=%d",
			st.Resets, st.Snapshots)
	}
	if fingerprint(f.st) != fingerprint(o.st) {
		t.Fatal("follower diverges across pinned fold")
	}
}

// TestPusherShipFirstSync exercises the replica-sync half: baseline on
// first pairing, incremental pushes after, restart detection via the
// boot token, and retention-outrun fallback.
func TestPusherShipFirstSync(t *testing.T) {
	o := newOwner(t, t.TempDir(), wal.Options{})
	recv := store.New()
	recvSvc := NewService(ServiceConfig{Store: recv}) // memory-only receiver
	call := func(req any) (any, error) {
		resp, handled, err := recvSvc.Handle(req)
		if !handled {
			return nil, fmt.Errorf("unhandled %T", req)
		}
		return resp, err
	}

	pusher := NewPusher(o.lg, "owner", nil)

	// Round 1: fresh pairing — must demand a digest round and baseline.
	if n, ok := pusher.SyncTo("recv", call); ok || n != 0 {
		t.Fatalf("first pairing: (%d, %v), want (0, false)", n, ok)
	}
	// Writes before the baseline are the digest's problem; after it,
	// shipping owns them.
	for i := 0; i < 25; i++ {
		o.put(t, i)
	}
	n, ok := pusher.SyncTo("recv", call)
	if !ok || n != 25 {
		t.Fatalf("incremental push: (%d, %v), want (25, true)", n, ok)
	}
	if recv.Len() == 0 {
		t.Fatal("receiver store empty after push")
	}
	// Convergence claim: every put the owner journaled is at the receiver.
	if missing := recv.MissingFrom(o.st.Digest(nil)); len(missing) != 0 {
		t.Fatalf("receiver still missing %d buckets after push", len(missing))
	}

	// Nothing new: an empty round still verifies the token and succeeds.
	if n, ok := pusher.SyncTo("recv", call); !ok || n != 0 {
		t.Fatalf("idle push: (%d, %v), want (0, true)", n, ok)
	}

	// Receiver restarts (new Service = new boot token, empty store):
	// the pusher must refuse to vouch and fall back.
	recv = store.New()
	recvSvc = NewService(ServiceConfig{Store: recv})
	if _, ok := pusher.SyncTo("recv", call); ok {
		t.Fatal("push to restarted receiver claimed convergence")
	}
	for i := 30; i < 35; i++ {
		o.put(t, i)
	}
	if n, ok := pusher.SyncTo("recv", call); !ok || n != 5 {
		t.Fatalf("push after restart rebaseline: (%d, %v), want (5, true)", n, ok)
	}
}

// TestPusherFilter pins the cascade guard: records failing the keep
// filter (buckets this peer does not own) are never pushed onward.
func TestPusherFilter(t *testing.T) {
	o := newOwner(t, t.TempDir(), wal.Options{})
	recv := store.New()
	recvSvc := NewService(ServiceConfig{Store: recv})
	call := func(req any) (any, error) {
		resp, _, err := recvSvc.Handle(req)
		return resp, err
	}
	pusher := NewPusher(o.lg, "owner", func(r wal.Record) bool { return r.ID%2 == 0 })
	pusher.SyncTo("recv", call) // baseline
	for i := 0; i < 20; i++ {
		o.st.Put(store.ID(i), testPart(i))
	}
	if err := o.lg.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, ok := pusher.SyncTo("recv", call); !ok || n != 10 {
		t.Fatalf("filtered push: (%d, %v), want (10, true)", n, ok)
	}
	for _, id := range recv.IDs() {
		if id%2 != 0 {
			t.Errorf("filtered-out bucket %d cascaded to the receiver", id)
		}
	}
}

// TestServiceRejectsHostileRequests pins the owner-side guards: missing
// identity and corrupt pushed batches are bad requests, not crashes,
// and do not wedge the service for well-formed peers.
func TestServiceRejectsHostileRequests(t *testing.T) {
	o := newOwner(t, t.TempDir(), wal.Options{})
	o.put(t, 1)

	if _, err := o.call(SubscribeReq{}); err == nil {
		t.Error("anonymous subscribe accepted")
	}
	if _, err := o.call(EntriesReq{Cursor: wal.Cursor{Seq: 1}}); err == nil {
		t.Error("anonymous entries request accepted")
	}
	if _, err := o.call(ApplyReq{Origin: "evil", Data: []byte("not a wal record")}); err == nil {
		t.Error("corrupt pushed batch accepted")
	}
	// A put record with a valid frame but applied through a nil-Apply
	// service must error cleanly too.
	empty := NewService(ServiceConfig{})
	rec := wal.Record{Op: wal.OpPut, ID: 1, Part: testPart(1)}
	if _, _, err := empty.Handle(ApplyReq{Origin: "x", Data: wal.AppendFramed(nil, &rec)}); err == nil {
		t.Error("apply-incapable service accepted a pushed batch")
	}
	// The service still works for honest followers afterwards.
	if _, err := o.call(SubscribeReq{Follower: "good"}); err != nil {
		t.Errorf("honest subscribe after hostile traffic: %v", err)
	}
}

// TestShipCodecRoundTrips drives every wire message through its
// append/parse pair.
func TestShipCodecRoundTrips(t *testing.T) {
	data := wal.AppendFramed(nil, &wal.Record{Op: wal.OpPut, ID: 9, Part: testPart(9)})
	msgs := []any{
		SubscribeReq{Follower: "f:1", Cursor: wal.Cursor{Seq: 3, Off: 999}},
		SubscribeResp{Tail: true, Reseed: true, Next: wal.Cursor{Seq: 4, Off: 17}, SnapSeq: 3, SnapSize: 1 << 20},
		EntriesReq{Follower: "f:1", Cursor: wal.Cursor{Seq: 2, Off: 10}, MaxBytes: 4096},
		EntriesResp{Data: data, Next: wal.Cursor{Seq: 2, Off: 300}, More: true},
		EntriesResp{Reset: true},
		SnapshotChunkReq{Follower: "f:1", Seq: 7, Off: 4096, MaxBytes: 512},
		SnapshotChunkResp{Data: []byte{1, 2, 3}, CRC: ChunkCRC([]byte{1, 2, 3}), Total: 12345},
		SnapshotChunkResp{Gone: true},
		CursorAckReq{Follower: "f:1", Cursor: wal.Cursor{Seq: 5, Off: 42}, Leave: true},
		CursorAckResp{},
		ApplyReq{Origin: "o:1", Data: data},
		ApplyResp{Token: 77, Applied: 12},
	}
	for _, in := range msgs {
		b, err := encodeMsg(in)
		if err != nil {
			t.Fatalf("encode %T: %v", in, err)
		}
		out, err := decodeMsg(in, b)
		if err != nil {
			t.Fatalf("decode %T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T round trip:\n in  %+v\n out %+v", in, in, out)
		}
	}
}
