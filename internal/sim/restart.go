package sim

import (
	"fmt"
	"math/rand"

	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/wal"
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
	// Seed drives all randomness.
	Seed int64
}

// restartRepairRounds is how many cluster-wide anti-entropy rounds run
// after the rejoin before the final accounting.
const restartRepairRounds = 3

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
	// Lost are still missing after restartRepairRounds of repair.
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
		Host: func(i int, hc *peer.HostConfig) {
			if i == 0 && cfg.Durable {
				hc.WAL = wal.Options{Dir: cfg.Dir}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	victim := c.Peers[0]

	// Publish a catalog of distinct ranges from random origins; every
	// StoreReq the victim acknowledges is committed to its WAL first.
	if _, err := c.publishCatalog(cfg.Partitions, rand.New(rand.NewSource(cfg.Seed)), cfg.Seed+1); err != nil {
		return nil, err
	}

	// Snapshot what the victim holds (per bucket, per descriptor key),
	// then kill it: WAL first (as the process dies, buffered-but-
	// unacknowledged records vanish), then the network identity.
	res := &RestartResult{}
	held := victim.Store().Digest(nil)
	for _, vv := range held {
		res.Held += len(vv)
	}
	if err := c.Crash(0); err != nil {
		return nil, err
	}

	// Restart with the same address — same chord ID, same arc. Booting
	// replays the data directory into the fresh store before the peer
	// rejoins.
	revived, err := c.boot(0, victim.Addr())
	if err != nil {
		return nil, err
	}
	res.Recovery = revived.Recovery
	recovered := make(map[string]bool, res.Held)
	for id, vv := range held {
		for key := range vv {
			if _, ok := revived.Store().Get(id, key); ok {
				res.Recovered++
				recovered[fmt.Sprintf("%08x/%s", id, key)] = true
			}
		}
	}

	// Rejoin and let the network resupply the rest: reclaim the arc from
	// the successor, then run anti-entropy rounds cluster-wide.
	if err := c.admit(revived); err != nil {
		return nil, fmt.Errorf("sim: rejoin after restart: %w", err)
	}
	for r := 0; r < restartRepairRounds; r++ {
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
