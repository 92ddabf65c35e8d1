package experiments

import (
	"fmt"
	"math/rand"

	"p2prange/internal/flood"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/sim"
	"p2prange/internal/store"
	"p2prange/internal/workload"
)

func init() {
	Register("flood", BaselineFlood)
}

// BaselineFlood compares the unstructured baseline (Gnutella-style
// flooding over a random overlay, caches local to their creator) against
// the paper's structured approach (LSH + Chord) on the same workload:
// match quality versus messages per query. Flooding with a large TTL sees
// everything but pays for it in messages; the DHT resolves l identifiers
// in l·O(log N) messages with comparable quality.
func BaselineFlood(p Params) (*Table, error) {
	t := &Table{
		ID:      "flood",
		Title:   "Unstructured flooding baseline vs LSH+Chord",
		Columns: []string{"system", "matched%", "full-recall%", "msgs/query"},
		Notes:   qualityNote(p, fmt.Sprintf("overlay degree 4, %d peers; containment matching", p.ClusterN*4)),
	}
	n := p.ClusterN * 4
	queries := p.Queries
	warmup := int(float64(queries) * workload.DefaultWarmupFrac)

	// Flooding runs at several TTLs.
	for _, ttl := range []int{2, 4, 8} {
		net, err := flood.New(flood.Config{N: n, Degree: 4, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		gen := workload.NewUniform(workload.DefaultDomainLo, workload.DefaultDomainHi, p.Seed)
		rng := rand.New(rand.NewSource(p.Seed + 1))
		measured, matched, full := 0, 0, 0
		totalMsgs := 0
		for i := 0; i < queries; i++ {
			q := gen.Next()
			origin := rng.Intn(n)
			res := net.Query(origin, "R", "a", q, store.MatchContainment, ttl)
			exact := res.Found && res.Match.Partition.Range == q
			if !exact {
				net.Cache(origin, store.Partition{Relation: "R", Attribute: "a", Range: q})
			}
			if i < warmup {
				continue
			}
			measured++
			totalMsgs += res.Messages
			if res.Found {
				matched++
				if q.Recall(res.Match.Partition.Range) >= 1 {
					full++
				}
			}
		}
		t.AddRow(
			fmt.Sprintf("flood TTL=%d", ttl),
			fmt.Sprintf("%.1f", 100*float64(matched)/float64(measured)),
			fmt.Sprintf("%.1f", 100*float64(full)/float64(measured)),
			fmt.Sprintf("%.0f", float64(totalMsgs)/float64(measured)),
		)
	}

	// The structured system on the same workload and peer count; message
	// cost is the chord hop count across the l probes (store traffic on a
	// miss adds l more messages, counted too).
	scheme, err := sim.Scheme(minhash.ApproxMinWise, p.Seed)
	if err != nil {
		return nil, err
	}
	cluster, err := sim.NewCluster(sim.ClusterConfig{
		N:    n,
		Peer: peer.Config{Scheme: scheme, Measure: store.MatchContainment},
	})
	if err != nil {
		return nil, err
	}
	gen := workload.NewUniform(workload.DefaultDomainLo, workload.DefaultDomainHi, p.Seed)
	rng := rand.New(rand.NewSource(p.Seed + 1))
	measured, matched, full := 0, 0, 0
	totalMsgs := 0
	for i := 0; i < queries; i++ {
		q := gen.Next()
		origin := cluster.RandomPeer(rng)
		lr, err := origin.Lookup("R", "a", q, true, nil)
		if err != nil {
			return nil, err
		}
		if i < warmup {
			continue
		}
		measured++
		msgs := 0
		for _, h := range lr.Hops {
			msgs += h + 1 // routing hops plus the bucket probe
		}
		if lr.Stored {
			msgs += len(lr.Hops) // one store message per identifier owner
		}
		totalMsgs += msgs
		if lr.Found {
			matched++
			if q.Recall(lr.Match.Partition.Range) >= 1 {
				full++
			}
		}
	}
	t.AddRow(
		"LSH+Chord l=5",
		fmt.Sprintf("%.1f", 100*float64(matched)/float64(measured)),
		fmt.Sprintf("%.1f", 100*float64(full)/float64(measured)),
		fmt.Sprintf("%.0f", float64(totalMsgs)/float64(measured)),
	)
	return t, nil
}
