package ship

import (
	"fmt"
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

// ownerPeer is one durable peer under test: a store journaling into its
// WAL.
type ownerPeer struct {
	dir string
	st  *store.Store
	lg  *wal.Log
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
	o := &ownerPeer{dir: dir, st: st, lg: lg}
	t.Cleanup(func() { o.lg.Close() })
	return o
}

// put writes one descriptor through the journaled path and commits.
func (o *ownerPeer) put(t *testing.T, i int) {
	t.Helper()
	o.st.Put(store.ID(i%17+1), testPart(i))
	if err := o.lg.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// newReceiver is a memory-only push receiver: its store and the call a
// Pusher ships through.
func newReceiver() (*store.Store, func(any) (any, error)) {
	st := store.New()
	svc := NewService(st)
	return st, func(req any) (any, error) {
		resp, handled, err := svc.Handle(req)
		if !handled {
			return nil, fmt.Errorf("unhandled %T", req)
		}
		return resp, err
	}
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
// recovery a pushed store must be byte-identical to.
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

// TestPusherRetentionPinsSurviveFold: a push pin keeps the folded WAL
// files on disk (within budget), so the next round ships exactly the
// records written across the fold, with no reset.
func TestPusherRetentionPinsSurviveFold(t *testing.T) {
	o := newOwner(t, t.TempDir(), wal.Options{}) // default 64MiB budget
	recv, call := newReceiver()
	pusher := NewPusher(o.lg, "owner", nil)
	pusher.SyncTo("recv", call) // baseline
	for i := 0; i < 40; i++ {
		o.put(t, i)
	}
	if n, ok := pusher.SyncTo("recv", call); !ok || n != 40 {
		t.Fatalf("first push: (%d, %v), want (40, true)", n, ok)
	}
	pin, pinned := o.lg.Pins()["push:recv"]
	if !pinned {
		t.Fatalf("no push pin after a round: %v", o.lg.Pins())
	}

	for i := 40; i < 60; i++ {
		o.put(t, i)
	}
	if err := o.lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 80; i++ {
		o.put(t, i)
	}
	resets := metPushResets.Value()
	n, ok := pusher.SyncTo("recv", call)
	if !ok || n != 40 {
		t.Errorf("push across pinned fold: (%d, %v), want exactly the 40 written across it, ok", n, ok)
	}
	if got := metPushResets.Value() - resets; got != 0 {
		t.Errorf("pinned push reset %d time(s) across the fold", got)
	}
	if next := o.lg.Pins()["push:recv"]; !pin.Less(next) {
		t.Errorf("pin did not advance past the fold: %s -> %s", pin, next)
	}
	if fingerprint(recv) != fingerprint(o.st) {
		t.Fatal("receiver diverges across pinned fold")
	}
}

// TestPusherRetentionResetsCursor: with retention off, a fold drops the
// push pin (reported by name through OnRetainDrop), the next round
// cannot vouch for the receiver and counts a reset, and the round after
// it ships incrementally again.
func TestPusherRetentionResetsCursor(t *testing.T) {
	var mu sync.Mutex
	var dropped []string
	o := newOwner(t, t.TempDir(), wal.Options{ShipRetain: -1, OnRetainDrop: func(name string, _ wal.Cursor) {
		mu.Lock()
		dropped = append(dropped, name)
		mu.Unlock()
	}})
	_, call := newReceiver()
	pusher := NewPusher(o.lg, "owner", nil)
	pusher.SyncTo("recv", call) // baseline
	for i := 0; i < 40; i++ {
		o.put(t, i)
	}
	if n, ok := pusher.SyncTo("recv", call); !ok || n != 40 {
		t.Fatalf("first push: (%d, %v), want (40, true)", n, ok)
	}

	for i := 40; i < 90; i++ {
		o.put(t, i)
	}
	if err := o.lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(dropped) != 1 || dropped[0] != "push:recv" {
		t.Errorf("retention drops = %v, want [push:recv]", dropped)
	}
	mu.Unlock()

	resets := metPushResets.Value()
	if n, ok := pusher.SyncTo("recv", call); ok || n != 0 {
		t.Fatalf("push after retention outran the cursor: (%d, %v), want (0, false)", n, ok)
	}
	if got := metPushResets.Value() - resets; got != 1 {
		t.Errorf("ship.push_resets moved by %d, want 1", got)
	}

	// The digest round owns the gap; what lands after it ships again.
	for i := 90; i < 95; i++ {
		o.put(t, i)
	}
	if n, ok := pusher.SyncTo("recv", call); !ok || n != 5 {
		t.Fatalf("push after the reset: (%d, %v), want (5, true)", n, ok)
	}
}

// TestPusherRacingCompaction runs push rounds concurrently with owner
// writes and folds (run under -race by make check). Retention pinning
// must hand the pusher across each seal point without skipping a
// record: at the end the receiver is digest-equal to the owner and
// byte-identical to a local recovery of its directory.
func TestPusherRacingCompaction(t *testing.T) {
	o := newOwner(t, t.TempDir(), wal.Options{})
	recv, call := newReceiver()
	pusher := NewPusher(o.lg, "owner", nil)
	pusher.SyncTo("recv", call) // baseline

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
			pusher.SyncTo("recv", call)
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
	if _, ok := pusher.SyncTo("recv", call); !ok {
		t.Fatal("final push after racing folds did not converge")
	}
	if missing := recv.MissingFrom(o.st.Digest(nil)); len(missing) != 0 {
		t.Fatalf("receiver still missing %d bucket(s) after racing folds", len(missing))
	}
	o.lg.Close()
	if fingerprint(recv) != fingerprint(recoverDir(t, o.dir)) {
		t.Fatal("receiver is not byte-identical to local recovery after racing folds")
	}
}

// TestPusherShipFirstSync exercises the replica-sync half: baseline on
// first pairing, incremental pushes after, restart detection via the
// boot token.
func TestPusherShipFirstSync(t *testing.T) {
	o := newOwner(t, t.TempDir(), wal.Options{})
	recv, call := newReceiver()
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
	_, call = newReceiver()
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
	recv, call := newReceiver()
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

// TestServiceRejectsHostileRequests pins the receiver-side guards:
// corrupt pushed batches are bad requests, not crashes, and do not
// wedge the service for well-formed peers.
func TestServiceRejectsHostileRequests(t *testing.T) {
	recv, call := newReceiver()
	if _, err := call(ApplyReq{Origin: "evil", Data: []byte("not a wal record")}); err == nil {
		t.Error("corrupt pushed batch accepted")
	}
	// A put record with a valid frame but applied through a service with
	// no store must error cleanly too.
	empty := NewService(nil)
	rec := wal.Record{Op: wal.OpPut, ID: 1, Part: testPart(1)}
	batch := wal.AppendFramed(nil, &rec)
	if _, _, err := empty.Handle(ApplyReq{Origin: "x", Data: batch}); err == nil {
		t.Error("apply-incapable service accepted a pushed batch")
	}
	// The service still works for honest pushers afterwards.
	resp, err := call(ApplyReq{Origin: "good", Data: batch})
	if err != nil || resp.(ApplyResp).Applied != 1 || recv.Len() != 1 {
		t.Errorf("honest push after hostile traffic: resp=%v err=%v stored=%d", resp, err, recv.Len())
	}
}

// TestShipCodecRoundTrips drives every wire message through its
// append/parse pair.
func TestShipCodecRoundTrips(t *testing.T) {
	data := wal.AppendFramed(nil, &wal.Record{Op: wal.OpPut, ID: 9, Part: testPart(9)})
	msgs := []any{
		ApplyReq{Origin: "o:1", Data: data},
		ApplyReq{Origin: "o:1"},
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
