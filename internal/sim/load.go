package sim

import (
	"fmt"
	"math/rand"

	"p2prange/internal/metrics"
	"p2prange/internal/minhash"
	"p2prange/internal/obs"
	"p2prange/internal/peer"
	"p2prange/internal/rangeset"
	"p2prange/internal/workload"
)

// LoadConfig parameterizes a hot-partition load run: a skewed query
// stream over a fixed set of published ranges, with optional replication,
// load-aware replica selection, and abrupt crashes mid-run. The exact
// (l=1) scheme keeps every query answerable — success means finding the
// published range itself — so the run isolates load balancing and
// availability from match quality.
type LoadConfig struct {
	// N is the ring size (default 48).
	N int
	// Partitions is the number of distinct ranges published before the
	// query stream starts (default 200).
	Partitions int
	// Queries is the number of queries issued (default 2000).
	Queries int
	// Replicas is the successor-copy count per descriptor
	// (peer.Config.Replicas); 0 disables the replica subsystem — the
	// single-copy baseline.
	Replicas int
	// LoadAware routes each probe to the least-loaded live replica.
	LoadAware bool
	// HotThreshold is the decayed probe count promoting a bucket to its
	// hot replica set, 2*(Replicas+1) copies (default 16 — lower than the
	// live default because a run's windows are a few hundred queries).
	HotThreshold uint64
	// Crashes is the number of abrupt peer failures, spread evenly across
	// the query stream (default 0). Negative disables crashing.
	Crashes int
	// StabilizeEvery runs one synchronous ring-repair round every this
	// many queries (default 50).
	StabilizeEvery int
	// Skew is the Zipf exponent of the query distribution over the
	// published ranges (default 1.2; must be > 1).
	Skew float64
	// Seed drives all randomness.
	Seed int64
}

// loadRepairEvery is the load run's anti-entropy cadence: one round at
// every peer every this many queries, which also decays the popularity
// trackers.
const loadRepairEvery = 100

func (cfg *LoadConfig) withDefaults() LoadConfig {
	out := *cfg
	if out.N <= 0 {
		out.N = 48
	}
	if out.Partitions <= 0 {
		out.Partitions = 200
	}
	if out.Queries <= 0 {
		out.Queries = 2000
	}
	if out.HotThreshold == 0 {
		out.HotThreshold = 16
	}
	if out.StabilizeEvery <= 0 {
		out.StabilizeEvery = 50
	}
	if out.Skew <= 1 {
		out.Skew = 1.2
	}
	return out
}

// LoadResult reports per-peer query load and availability.
type LoadResult struct {
	// Queries is the number issued; Succeeded those that found the exact
	// published range.
	Queries   int
	Succeeded int
	// Loads is the number of bucket probes each surviving peer served.
	Loads []int64
	// Max and Mean summarize Loads.
	Max  int64
	Mean float64
	// Repaired counts descriptor copies re-created by anti-entropy.
	Repaired int
	// Survivors is the ring size at the end of the run.
	Survivors int
	// Rollup is the cluster-wide observability summary for this run —
	// the same aggregate rangetop computes against a live cluster,
	// derived here from the run's metrics delta and the surviving peers.
	Rollup obs.Rollup
}

// SuccessRate returns the percentage of queries answered exactly.
func (r LoadResult) SuccessRate() float64 {
	if r.Queries == 0 {
		return 100
	}
	return 100 * float64(r.Succeeded) / float64(r.Queries)
}

// Imbalance returns max/mean peer load — 1.0 is a perfectly even
// cluster; the hot-partition pathology drives it toward N.
func (r LoadResult) Imbalance() float64 {
	if r.Mean == 0 {
		return 0
	}
	return float64(r.Max) / r.Mean
}

// RunLoad publishes cfg.Partitions uniform ranges, then drives a
// Zipf-skewed query stream over exactly that set while crashing peers and
// running ring stabilization and anti-entropy repair at their configured
// cadences. Per-peer served-probe counts are collected at the end.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Crashes >= cfg.N {
		return nil, fmt.Errorf("sim: cannot crash %d of %d peers", cfg.Crashes, cfg.N)
	}
	c, err := NewCluster(ClusterConfig{
		N: cfg.N,
		Peer: peer.Config{
			Scheme:       minhash.NewExactScheme(),
			Replicas:     cfg.Replicas,
			LoadAware:    cfg.LoadAware,
			HotThreshold: cfg.HotThreshold,
		},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	metBefore := metrics.Default.Snapshot()

	// Publish a fixed catalog of distinct ranges; the query stream draws
	// from it, so every query has an exact answer somewhere.
	catalog, err := c.publishCatalog(cfg.Partitions, rng, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	ranges := make([]rangeset.Range, len(catalog))
	for i, p := range catalog {
		ranges[i] = p.Range
	}
	queries := workload.NewZipfChoice(ranges, cfg.Skew, cfg.Seed+2)

	res := &LoadResult{Queries: cfg.Queries}
	crashGap := cfg.Queries
	if cfg.Crashes > 0 {
		crashGap = cfg.Queries / (cfg.Crashes + 1)
		if crashGap == 0 {
			crashGap = 1
		}
	}
	crashed := 0
	for q := 0; q < cfg.Queries; q++ {
		if cfg.Crashes > 0 && crashed < cfg.Crashes && q == (crashed+1)*crashGap {
			c.drop(rng.Intn(len(c.Peers)))
			crashed++
		}
		if q > 0 && q%cfg.StabilizeEvery == 0 {
			c.Stabilize(1)
		}
		if q > 0 && q%loadRepairEvery == 0 {
			res.Repaired += c.RepairReplicas()
		}
		want := queries.Next()
		origin := c.RandomPeer(rng)
		lr, err := origin.Lookup("R", "a", want, false, nil)
		if err == nil && lr.Found && lr.Match.Partition.Range == want {
			res.Succeeded++
		}
	}
	res.Loads = make([]int64, len(c.Peers))
	var total int64
	for i, p := range c.Peers {
		res.Loads[i] = p.ServedProbes()
		total += res.Loads[i]
		if res.Loads[i] > res.Max {
			res.Max = res.Loads[i]
		}
	}
	if len(res.Loads) > 0 {
		res.Mean = float64(total) / float64(len(res.Loads))
	}
	res.Survivors = len(c.Peers)
	res.Rollup = c.ViewSince(metBefore).Rollup
	return res, nil
}

// RepairReplicas runs one anti-entropy round at every peer, returning
// the number of descriptor copies re-created.
func (c *Cluster) RepairReplicas() int {
	repaired := 0
	for _, p := range c.Peers {
		repaired += p.RepairReplicas().Repaired
	}
	return repaired
}
