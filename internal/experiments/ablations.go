package experiments

import (
	"fmt"
	"math/rand"

	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/sim"
	"p2prange/internal/store"
	"p2prange/internal/workload"
)

func init() {
	Register("kl", AblationKL)
	Register("peeridx", AblationPeerIndex)
	Register("workloads", AblationWorkloads)
}

// AblationKL sweeps the (k, l) scheme parameters and reports the
// theoretical collision-probability step alongside the measured match
// rate and full-recall rate, showing why the paper picked k=20, l=5 (a
// step at similarity ≈ 0.9).
func AblationKL(p Params) (*Table, error) {
	t := &Table{
		ID:      "kl",
		Title:   "(k,l) parameter ablation, approximate min-wise hashing",
		Columns: []string{"k", "l", "P(col|s=.8)", "P(col|s=.9)", "P(col|s=.95)", "matched%", "full-recall%"},
		Notes:   qualityNote(p, "theoretical step 1-(1-s^k)^l vs measured behavior"),
	}
	configs := []struct{ k, l int }{
		{1, 1}, {5, 3}, {10, 5}, {20, 5}, {20, 10}, {40, 5},
	}
	for _, c := range configs {
		scheme, err := minhash.NewScheme(minhash.ApproxMinWise, c.k, c.l,
			rand.New(rand.NewSource(p.Seed)))
		if err != nil {
			return nil, err
		}
		res, _, err := clusterQuality(p.ClusterN, peer.Config{Scheme: scheme.Compiled()},
			sim.QualityConfig{Queries: p.Queries, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", c.k),
			fmt.Sprintf("%d", c.l),
			fmt.Sprintf("%.3f", minhash.CollideProbability(0.80, c.k, c.l)),
			fmt.Sprintf("%.3f", minhash.CollideProbability(0.90, c.k, c.l)),
			fmt.Sprintf("%.3f", minhash.CollideProbability(0.95, c.k, c.l)),
			fmt.Sprintf("%.1f", 100*float64(res.Matched)/float64(res.Measured)),
			fmt.Sprintf("%.1f", res.Recall.AtLeast(0.9999)),
		)
	}
	return t, nil
}

// AblationPeerIndex exercises the Section 5.3 extension: searching all
// buckets a peer owns instead of only the requested bucket. The paper
// predicts recall is best with one peer (all partitions in one index) and
// degrades toward bucket-only recall as the ring grows. The benefit is
// saturated while cached descriptors greatly outnumber peers (a query
// with one containing cached range typically has many, so probing even a
// few peers finds one); the sweep therefore extends into the sparse
// regime where peers outnumber cached buckets.
func AblationPeerIndex(p Params) (*Table, error) {
	t := &Table{
		ID:      "peeridx",
		Title:   "Per-peer index extension (Sec 5.3): recall vs ring size",
		Columns: []string{"peers", "indexed full-recall%", "bucket-only full-recall%"},
		Notes:   qualityNote(p, "containment matching, approx min-wise"),
	}
	sizes := []int{1, 16, 256, 4096}
	for _, n := range sizes {
		var full [2]float64
		for mode, useIdx := range []bool{true, false} {
			scheme, err := sim.Scheme(minhash.ApproxMinWise, p.Seed)
			if err != nil {
				return nil, err
			}
			res, _, err := clusterQuality(n,
				peer.Config{Scheme: scheme, Measure: store.MatchContainment, UsePeerIndex: useIdx},
				sim.QualityConfig{Queries: p.Queries, Seed: p.Seed})
			if err != nil {
				return nil, err
			}
			full[mode] = res.Recall.AtLeast(0.9999)
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f", full[0]), fmt.Sprintf("%.1f", full[1]))
	}
	return t, nil
}

// AblationWorkloads compares the paper's uniform workload with skewed
// (Zipf) and clustered workloads: repeated hot ranges should raise match
// quality, since similar ranges accumulate in the cache.
func AblationWorkloads(p Params) (*Table, error) {
	t := &Table{
		ID:      "workloads",
		Title:   "Workload ablation: match rate and recall per query distribution",
		Columns: []string{"workload", "matched%", "full-recall%", ">=0.5-recall%"},
		Notes:   qualityNote(p, "containment matching, approx min-wise"),
	}
	gens := []sim.QualityConfig{
		{Queries: p.Queries, Seed: p.Seed},
		{Queries: p.Queries, Seed: p.Seed, Workload: newZipf(p.Seed)},
		{Queries: p.Queries, Seed: p.Seed, Workload: newClustered(p.Seed)},
	}
	labels := []string{"uniform", "zipf", "clustered"}
	for i, cfg := range gens {
		scheme, err := sim.Scheme(minhash.ApproxMinWise, p.Seed)
		if err != nil {
			return nil, err
		}
		res, _, err := clusterQuality(p.ClusterN, peer.Config{Scheme: scheme, Measure: store.MatchContainment}, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			labels[i],
			fmt.Sprintf("%.1f", 100*float64(res.Matched)/float64(res.Measured)),
			fmt.Sprintf("%.1f", res.Recall.AtLeast(0.9999)),
			fmt.Sprintf("%.1f", res.Recall.AtLeast(0.5)),
		)
	}
	return t, nil
}

func newZipf(seed int64) workload.Generator {
	return workload.NewZipf(workload.DefaultDomainLo, workload.DefaultDomainHi, 300, 1.2, seed)
}

func newClustered(seed int64) workload.Generator {
	return workload.NewClustered(workload.DefaultDomainLo, workload.DefaultDomainHi, 5, 30, 300, seed)
}
