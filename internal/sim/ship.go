package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/replica"
	"p2prange/internal/ship"
	"p2prange/internal/store"
	"p2prange/internal/transport"
	"p2prange/internal/wal"
	"p2prange/internal/workload"
)

// Ship ablation: one durable owner, one durable replica that the
// owner's pusher synced once and that then missed Missed writes, and
// three ways to converge again — the digest anti-entropy exchange (cost
// scales with the whole store), the pusher shipping the owner's WAL
// from the replica's cursor (cost scales with the missed writes), and
// the push reset the pusher takes when retention outran that cursor,
// which hands the gap to a digest round. Every mode ends with a
// byte-identity check against a local recovery of the owner's data
// directory: a replica store must be indistinguishable from a recovered
// one.

// Ship catch-up modes.
const (
	// ShipModeDigest converges by the replica subsystem's digest
	// exchange: the owner's full version vector crosses the wire, the
	// replica answers with what it lacks, the owner pushes those
	// descriptors. O(store) rows regardless of how few writes were
	// missed.
	ShipModeDigest = "digest"
	// ShipModeTail converges by the pusher shipping WAL records from
	// the replica's cursor. O(missed) records; the rest of the store
	// never moves.
	ShipModeTail = "push-tail"
	// ShipModeReset folds the owner's WAL (retention keeps nothing)
	// before the pusher runs, so the replica's cursor is gone: the
	// pusher reports a reset and a digest round closes the gap.
	ShipModeReset = "push-reset"
)

// ShipConfig parameterizes one catch-up run.
type ShipConfig struct {
	// Base is the descriptor count both sides hold before the replica
	// falls behind (default 400).
	Base int
	// Missed is how many writes land while the replica is behind
	// (default 50).
	Missed int
	// Mode is one of the ShipMode constants.
	Mode string
	// OwnerDir and ReplicaDir are the two data directories (required;
	// both stores journal every mutation).
	OwnerDir, ReplicaDir string
	// Seed drives the workload.
	Seed int64
}

func (cfg *ShipConfig) withDefaults() ShipConfig {
	out := *cfg
	if out.Base <= 0 {
		out.Base = 400
	}
	if out.Missed <= 0 {
		out.Missed = 50
	}
	return out
}

// ShipResult reports what one catch-up cost.
type ShipResult struct {
	// Held is the owner's descriptor count after all writes.
	Held int
	// SyncRecords is how many pushed records and digest-pushed
	// descriptors the catch-up moved.
	SyncRecords int
	// SyncBytes is the frame bytes the catch-up moved: push requests
	// and their answers, plus the digest exchange and its descriptor
	// pushes, each priced at the binary frame a peer sends.
	SyncBytes int64
	// DigestRows is the version-vector row count the digest exchange
	// carried (0 for push-tail) — the O(store) term.
	DigestRows int
	// Resets counts push rounds that could not vouch for the replica
	// and handed the gap to a digest round (push-reset expects 1).
	Resets int
	// Elapsed is the catch-up wall time.
	Elapsed time.Duration
	// Identical reports the byte-identity shadow check: the replica's
	// store renders exactly like a store recovered locally from the
	// owner's data directory.
	Identical bool
}

// RunShip publishes Base descriptors to a durable owner, pushes them to
// a durable replica, lands Missed more writes the replica does not see,
// then converges by cfg.Mode and accounts for the cost.
func RunShip(cfg ShipConfig) (*ShipResult, error) {
	cfg = cfg.withDefaults()
	if cfg.OwnerDir == "" || cfg.ReplicaDir == "" {
		return nil, fmt.Errorf("sim: ShipConfig.OwnerDir and ReplicaDir are required")
	}
	switch cfg.Mode {
	case ShipModeDigest, ShipModeTail, ShipModeReset:
	default:
		return nil, fmt.Errorf("sim: unknown ship mode %q", cfg.Mode)
	}

	// Owner and replica are two durable peers on one network. Reset
	// mode retains no WAL past a fold, so the push cursor is dead the
	// moment the owner compacts; the other modes keep the default
	// retention budget. A third peer, booted last, recovers the owner's
	// directory for the shadow check.
	dirs := []string{cfg.OwnerDir, cfg.ReplicaDir, cfg.OwnerDir}
	c, err := NewCluster(ClusterConfig{
		N:     2,
		Peer:  peer.Config{Scheme: minhash.NewExactScheme()},
		Addrs: []string{"owner", "replica"},
		Host: func(i int, hc *peer.HostConfig) {
			hc.WAL = wal.Options{Dir: dirs[i], CompactEvery: -1}
			if i == 0 && cfg.Mode == ShipModeReset {
				hc.WAL.ShipRetain = -1
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	owner, repl := c.Peers[0], c.Peers[1]
	ost, rst := owner.Store(), repl.Store()

	// The pusher's calls are priced at the frames they send and receive.
	var pushBytes int64
	call := func(req any) (any, error) {
		resp, err := owner.Call(repl.Ref(), req)
		if err != nil {
			return nil, err
		}
		for _, msg := range []any{req, resp} {
			n, err := transport.FrameSize(msg)
			if err != nil {
				return nil, err
			}
			pushBytes += int64(n)
		}
		return resp, nil
	}
	pusher := ship.NewPusher(owner.Log, owner.Addr(), nil)

	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := workload.NewUniform(workload.DefaultDomainLo, workload.DefaultDomainHi, cfg.Seed+1)
	publish := func(n int) error {
		for i := 0; i < n; i++ {
			p := store.Partition{Relation: "R", Attribute: "a", Range: gen.Next(),
				Holder: "owner:4000", Version: 1, Origin: "o:1"}
			ost.Put(rng.Uint32(), p)
		}
		return ost.Commit()
	}

	// Pair before the base lands, so the base itself ships incrementally
	// and the replica holds exactly the owner's store.
	pusher.SyncTo(repl.Addr(), call)
	if err := publish(cfg.Base); err != nil {
		return nil, err
	}
	if _, ok := pusher.SyncTo(repl.Addr(), call); !ok {
		return nil, fmt.Errorf("sim: initial push did not converge")
	}

	// The gap: Missed writes the replica never sees. Reset mode folds
	// afterward, destroying the WAL history the push cursor points at.
	if err := publish(cfg.Missed); err != nil {
		return nil, err
	}
	if cfg.Mode == ShipModeReset {
		if err := owner.Log.Checkpoint(); err != nil {
			return nil, err
		}
	}

	res := &ShipResult{}
	for _, vv := range ost.Digest(nil) {
		res.Held += len(vv)
	}

	start := time.Now()
	if cfg.Mode != ShipModeDigest {
		pushBytes = 0
		n, ok := pusher.SyncTo(repl.Addr(), call)
		res.SyncRecords, res.SyncBytes = n, pushBytes
		if !ok {
			res.Resets++
		}
	}
	if cfg.Mode != ShipModeTail {
		if err := digestRound(ost, rst, res); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)

	// Shadow check: recover the owner's directory into a fresh peer and
	// demand the replica renders identically, byte for byte.
	shadow, err := c.boot(2, "shadow")
	if err != nil {
		return nil, fmt.Errorf("sim: shadow recovery: %w", err)
	}
	res.Identical = storeFingerprint(rst) == storeFingerprint(shadow.Store())
	shadow.Close()

	return res, nil
}

// digestRound runs the replica exchange from ost to rst, costed message
// by message: the owner's full digest out, the missing-keys answer back,
// one replica StoreReq push per lacking descriptor. Each is priced at
// the binary frame a peer actually sends.
func digestRound(ost, rst *store.Store, res *ShipResult) error {
	digest := ost.Digest(nil)
	for _, vv := range digest {
		res.DigestRows += len(vv)
	}
	missing := rst.MissingFrom(digest)
	sent := []any{replica.SyncReq{Digest: digest}, replica.SyncResp{Missing: missing}}
	for id, keys := range missing {
		for _, key := range keys {
			p, held := ost.Get(id, key)
			if !held {
				continue
			}
			sent = append(sent, peer.StoreReq{ID: id, Partition: p, Replica: true})
			rst.Put(id, p)
			res.SyncRecords++
		}
	}
	for _, msg := range sent {
		n, err := transport.FrameSize(msg)
		if err != nil {
			return err
		}
		res.SyncBytes += int64(n)
	}
	return rst.Commit()
}

// storeFingerprint renders a store's full content — every bucket, every
// descriptor, stamps included — canonically, so two stores compare for
// exact equality.
func storeFingerprint(st *store.Store) string {
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
