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

// Ship ablation: one durable owner, one durable follower that synced
// once and then missed Missed writes, and three ways to converge again —
// the digest anti-entropy exchange (cost scales with the whole store),
// tailing the owner's WAL from the follower's cursor (cost scales with
// the missed writes), and snapshot seeding (the segment stream a
// follower takes when retention outran its cursor). Every mode ends with
// a byte-identity check against a local recovery of the owner's data
// directory: a shipped store must be indistinguishable from a recovered
// one.

// Ship catch-up modes.
const (
	// ShipModeDigest converges by the replica subsystem's digest
	// exchange: the owner's full version vector crosses the wire, the
	// follower answers with what it lacks, the owner pushes those
	// descriptors. O(store) rows regardless of how few writes were
	// missed.
	ShipModeDigest = "digest"
	// ShipModeTail converges by shipping WAL records from the
	// follower's cursor. O(missed) records; the rest of the store never
	// moves.
	ShipModeTail = "tail"
	// ShipModeSnapshot folds the owner's WAL (retention keeps nothing)
	// before the follower returns, forcing the snapshot path: stream
	// the sealed segment, then tail from the seal point. O(store)
	// bytes, but self-contained — it needs no WAL history at all.
	ShipModeSnapshot = "snapshot"
)

// ShipConfig parameterizes one catch-up run.
type ShipConfig struct {
	// Base is the descriptor count both sides hold before the follower
	// disconnects (default 400).
	Base int
	// Missed is how many writes land while the follower is away
	// (default 50).
	Missed int
	// Mode is one of the ShipMode constants.
	Mode string
	// OwnerDir and FollowerDir are the two data directories (required;
	// both stores journal every mutation).
	OwnerDir, FollowerDir string
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
	// SyncRecords is how many records (tail/snapshot) or pushed
	// descriptors (digest) the catch-up moved.
	SyncRecords int
	// SyncBytes is the payload bytes the catch-up moved: entry batches
	// and segment chunks for the shipping modes, encoded digests plus
	// pushed descriptors for the digest mode.
	SyncBytes int64
	// DigestRows is the version-vector row count the digest exchange
	// carried (0 for the shipping modes) — the O(store) term.
	DigestRows int
	// Snapshots counts snapshot seeds taken (snapshot mode expects 1).
	Snapshots int
	// Elapsed is the catch-up wall time.
	Elapsed time.Duration
	// Identical reports the byte-identity shadow check: the follower's
	// store renders exactly like a store recovered locally from the
	// owner's data directory.
	Identical bool
}

// RunShip publishes Base descriptors to a durable owner, syncs a durable
// follower, disconnects it, lands Missed more writes, then converges by
// cfg.Mode and accounts for the cost.
func RunShip(cfg ShipConfig) (*ShipResult, error) {
	cfg = cfg.withDefaults()
	if cfg.OwnerDir == "" || cfg.FollowerDir == "" {
		return nil, fmt.Errorf("sim: ShipConfig.OwnerDir and FollowerDir are required")
	}

	// Owner and follower are two durable peers on one network, and the
	// follower tails the owner. Snapshot mode retains no WAL past a
	// fold, so the follower's cursor is dead the moment the owner
	// compacts; the other modes keep the default retention budget. A
	// third peer, booted last, recovers the owner's directory for the
	// shadow check.
	dirs := []string{cfg.OwnerDir, cfg.FollowerDir, cfg.OwnerDir}
	c, err := NewCluster(ClusterConfig{
		N:     2,
		Peer:  peer.Config{Scheme: minhash.NewExactScheme()},
		Addrs: []string{"owner", "follower"},
		Host: func(i int, hc *peer.HostConfig) {
			hc.WAL = wal.Options{Dir: dirs[i], CompactEvery: -1}
			switch {
			case i == 0 && cfg.Mode == ShipModeSnapshot:
				hc.WAL.ShipRetain = -1
			case i == 1:
				hc.Follow = "owner"
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	owner, follower := c.Peers[0], c.Peers[1]
	ost, fst, fl := owner.Store(), follower.Store(), follower.Follower

	// Publish the shared base, converge the follower, then disconnect
	// it (drop its retention pin, as a stopping follower does).
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
	if err := publish(cfg.Base); err != nil {
		return nil, err
	}
	if _, err := fl.CatchUp(); err != nil {
		return nil, fmt.Errorf("sim: initial sync: %w", err)
	}
	if _, err := follower.Call(owner.Ref(), ship.CursorAckReq{Follower: follower.Addr(), Leave: true}); err != nil {
		return nil, err
	}

	// The gap: Missed writes the follower never sees. Snapshot mode
	// folds afterward, destroying the WAL history the cursor points at.
	if err := publish(cfg.Missed); err != nil {
		return nil, err
	}
	if cfg.Mode == ShipModeSnapshot {
		if err := owner.Log.Checkpoint(); err != nil {
			return nil, err
		}
	}

	res := &ShipResult{}
	for _, vv := range ost.Digest(nil) {
		res.Held += len(vv)
	}

	start := time.Now()
	switch cfg.Mode {
	case ShipModeDigest:
		// The replica exchange, costed message by message: the owner's
		// full digest out, the missing-keys answer back, one replica
		// StoreReq push per lacking descriptor. Each is priced at the
		// binary frame a peer actually sends.
		digest := ost.Digest(nil)
		for _, vv := range digest {
			res.DigestRows += len(vv)
		}
		missing := fst.MissingFrom(digest)
		sent := []any{replica.SyncReq{Digest: digest}, replica.SyncResp{Missing: missing}}
		for id, keys := range missing {
			for _, key := range keys {
				p, held := ost.Get(id, key)
				if !held {
					continue
				}
				sent = append(sent, peer.StoreReq{ID: id, Partition: p, Replica: true})
				fst.Put(id, p)
				res.SyncRecords++
			}
		}
		for _, msg := range sent {
			n, err := transport.FrameSize(msg)
			if err != nil {
				return nil, err
			}
			res.SyncBytes += int64(n)
		}
		if err := fst.Commit(); err != nil {
			return nil, err
		}
	case ShipModeTail, ShipModeSnapshot:
		before := fl.Stats()
		if _, err := fl.CatchUp(); err != nil {
			return nil, fmt.Errorf("sim: catch-up: %w", err)
		}
		after := fl.Stats()
		res.SyncRecords = int(after.Applied - before.Applied)
		res.SyncBytes = int64(after.Bytes - before.Bytes)
		res.Snapshots = int(after.Snapshots - before.Snapshots)
	default:
		return nil, fmt.Errorf("sim: unknown ship mode %q", cfg.Mode)
	}
	res.Elapsed = time.Since(start)

	// Shadow check: recover the owner's directory into a fresh peer and
	// demand the follower renders identically, byte for byte.
	shadow, err := c.boot(2, "shadow")
	if err != nil {
		return nil, fmt.Errorf("sim: shadow recovery: %w", err)
	}
	res.Identical = storeFingerprint(fst) == storeFingerprint(shadow.Store())
	shadow.Close()

	return res, nil
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
