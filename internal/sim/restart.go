package sim

import (
	"fmt"
	"math/rand"

	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/store"
	"p2prange/internal/wal"
	"p2prange/internal/workload"
)

// Restart ablation: crash one peer that owns a durable store, bring it
// back with the same identity and data directory, and account for every
// descriptor it held — recovered from disk by WAL replay, backfilled
// over the network by arc reclaim + anti-entropy, or lost. Running the
// same scenario with Durable false is the pre-durability baseline where
// replay recovers nothing and the network must resupply everything it
// can.

// RestartConfig parameterizes one crash-and-restart run.
type RestartConfig struct {
	// N is the ring size (default 16).
	N int
	// Partitions is the number of distinct ranges published before the
	// crash (default 300).
	Partitions int
	// Replicas is the successor-copy count per descriptor (default 2);
	// backfill needs at least one copy to survive the crash.
	Replicas int
	// Durable attaches a write-ahead log to the victim, so the restart
	// replays its store from Dir. False is the cold-restart baseline.
	Durable bool
	// Dir is the victim's data directory (required when Durable).
	Dir string
	// Fsync is the WAL commit barrier mode (default FsyncAlways).
	Fsync wal.FsyncMode
	// CompactEvery is the WAL fold threshold (0 = wal default; negative
	// disables compaction so recovery replays raw WAL records).
	CompactEvery int
	// RepairRounds is how many cluster-wide anti-entropy rounds run
	// after the rejoin before the final accounting (default 3).
	RepairRounds int
	// Seed drives all randomness.
	Seed int64
}

func (cfg *RestartConfig) withDefaults() RestartConfig {
	out := *cfg
	if out.N <= 0 {
		out.N = 16
	}
	if out.Partitions <= 0 {
		out.Partitions = 300
	}
	if out.Replicas <= 0 {
		out.Replicas = 2
	}
	if out.RepairRounds <= 0 {
		out.RepairRounds = 3
	}
	return out
}

// RestartResult accounts for the victim's descriptors across the
// crash-restart cycle.
type RestartResult struct {
	// Held is how many descriptors the victim held when it crashed.
	Held int
	// Recovered were present immediately after WAL replay, before the
	// peer rejoined the ring (always 0 for a cold restart).
	Recovered int
	// Backfilled were absent after replay but resupplied by arc reclaim
	// and anti-entropy once the peer rejoined.
	Backfilled int
	// Lost are still missing after RepairRounds of repair.
	Lost int
	// Recovery is the WAL replay summary (zero for a cold restart);
	// Recovery.Elapsed is the recovery latency.
	Recovery wal.Recovery
}

// RunRestart publishes a catalog onto a fresh ring whose victim peer
// (index 0) journals every mutation when cfg.Durable is set, crashes the
// victim abruptly (the WAL stops as on kill -9: committed records are on
// disk, uncommitted buffer lost), restarts it with the same address and
// data directory, and reports the recovered / backfilled / lost split.
func RunRestart(cfg RestartConfig) (*RestartResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Durable && cfg.Dir == "" {
		return nil, fmt.Errorf("sim: RestartConfig.Dir required when Durable")
	}
	c, err := NewCluster(ClusterConfig{
		N: cfg.N,
		Peer: peer.Config{
			Scheme:   minhash.NewExactScheme(),
			Replicas: cfg.Replicas,
		},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	victim := c.Peers[0]
	victimAddr := victim.Addr()

	var lg *wal.Log
	if cfg.Durable {
		// The victim's store is empty, so there is nothing to replay;
		// Open only creates the directory and the first WAL file.
		lg, _, err = wal.Open(wal.Options{
			Dir: cfg.Dir, Fsync: cfg.Fsync, CompactEvery: cfg.CompactEvery,
		}, wal.StoreRestorer(victim.Store()))
		if err != nil {
			return nil, err
		}
		victim.Store().SetJournal(lg)
		victim.AttachDurability(lg)
	}

	// Publish a catalog of distinct ranges from random origins; every
	// StoreReq the victim acknowledges is committed to its WAL first.
	gen := workload.NewUniform(workload.DefaultDomainLo, workload.DefaultDomainHi, cfg.Seed+1)
	seen := make(map[string]bool, cfg.Partitions)
	for published := 0; published < cfg.Partitions; {
		p := store.Partition{Relation: "R", Attribute: "a", Range: gen.Next()}
		if seen[p.Key()] {
			continue
		}
		seen[p.Key()] = true
		origin := c.RandomPeer(rng)
		p.Holder = origin.Addr()
		if _, err := origin.Publish(p, nil); err != nil {
			return nil, fmt.Errorf("sim: publish %s: %w", p.Range, err)
		}
		published++
	}

	// Snapshot what the victim holds (per bucket, per descriptor key),
	// then kill it: WAL first (as the process dies, buffered-but-
	// unacknowledged records vanish), then the network identity.
	res := &RestartResult{}
	held := victim.Store().Digest(nil)
	for _, vv := range held {
		res.Held += len(vv)
	}
	if lg != nil {
		lg.Crash()
	}
	if err := c.Crash(0); err != nil {
		return nil, err
	}

	// Restart with the same address — same chord ID, same arc. Replay
	// the data directory into the fresh store before rejoining.
	revived, err := peer.New(victimAddr, c.peerCaller(), c.cfg.Peer)
	if err != nil {
		return nil, err
	}
	recovered := make(map[string]bool, res.Held)
	if cfg.Durable {
		lg2, rec, err := wal.Open(wal.Options{
			Dir: cfg.Dir, Fsync: cfg.Fsync, CompactEvery: cfg.CompactEvery,
		}, wal.StoreRestorer(revived.Store()))
		if err != nil {
			return nil, err
		}
		res.Recovery = rec
		revived.Store().SetJournal(lg2)
		revived.AttachDurability(lg2)
		for id, vv := range held {
			for key := range vv {
				if _, ok := revived.Store().Get(id, key); ok {
					res.Recovered++
					recovered[fmt.Sprintf("%08x/%s", id, key)] = true
				}
			}
		}
	}

	// Rejoin and let the network resupply the rest: reclaim the arc from
	// the successor, then run anti-entropy rounds cluster-wide.
	c.Net.Register(revived.Addr(), revived.Handle)
	if err := revived.Node().Join(c.Peers[0].Addr()); err != nil {
		return nil, fmt.Errorf("sim: rejoin: %w", err)
	}
	c.Peers = append(c.Peers, revived)
	c.Stabilize(4)
	if err := revived.ReclaimArc(); err != nil {
		return nil, fmt.Errorf("sim: reclaim after restart: %w", err)
	}
	for r := 0; r < cfg.RepairRounds; r++ {
		c.RepairReplicas()
		c.Stabilize(1)
	}

	for id, vv := range held {
		for key := range vv {
			if _, ok := revived.Store().Get(id, key); ok {
				if !recovered[fmt.Sprintf("%08x/%s", id, key)] {
					res.Backfilled++
				}
			} else {
				res.Lost++
			}
		}
	}
	return res, nil
}
