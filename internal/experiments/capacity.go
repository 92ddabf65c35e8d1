package experiments

import (
	"fmt"

	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/sim"
	"p2prange/internal/store"
)

func init() {
	Register("capacity", AblationCapacity)
}

// AblationCapacity bounds the per-peer descriptor cache (the paper
// assumes unbounded caches) and measures the recall cost of LRU eviction
// at decreasing capacities. The cache is useful well below the unbounded
// footprint because recently matched partitions — the ones similar
// queries keep hitting — stay resident.
func AblationCapacity(p Params) (*Table, error) {
	t := &Table{
		ID:      "capacity",
		Title:   "Per-peer cache capacity ablation (LRU eviction)",
		Columns: []string{"capacity/peer", "stored-total", "matched%", "full-recall%"},
		Notes:   qualityNote(p, "containment matching, approx min-wise; 0 = unbounded"),
	}
	// Unbounded footprint ≈ queries · l / peers; sweep fractions of it.
	unboundedPerPeer := p.Queries * minhash.DefaultL / p.ClusterN
	caps := []int{0, unboundedPerPeer / 2, unboundedPerPeer / 4, unboundedPerPeer / 16}
	for _, c := range caps {
		scheme, err := sim.Scheme(minhash.ApproxMinWise, p.Seed)
		if err != nil {
			return nil, err
		}
		res, cluster, err := clusterQuality(p.ClusterN,
			peer.Config{Scheme: scheme, Measure: store.MatchContainment, CacheCapacity: c},
			sim.QualityConfig{Queries: p.Queries, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		label := "unbounded"
		if c > 0 {
			label = fmt.Sprintf("%d", c)
		}
		t.AddRow(
			label,
			fmt.Sprintf("%d", cluster.TotalStored()),
			fmt.Sprintf("%.1f", 100*float64(res.Matched)/float64(res.Measured)),
			fmt.Sprintf("%.1f", res.Recall.AtLeast(0.9999)),
		)
	}
	return t, nil
}
