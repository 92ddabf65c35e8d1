package sim

import (
	"fmt"
	"math/rand"

	"p2prange/internal/metrics"
	"p2prange/internal/workload"
)

// QualityConfig parameterizes a match-quality run (Figs. 6-10): the
// workload is fed through the Section 4 protocol on a live simulated
// cluster; the system starts empty and caches every non-exact query
// range.
type QualityConfig struct {
	// Queries is the number of query ranges (default
	// workload.DefaultQueries).
	Queries int
	// PadFrac expands each query range by this fraction on each edge
	// before hashing and matching (Fig. 10 uses 0.20); recall is always
	// measured against the unpadded query.
	PadFrac float64
	// AdaptivePadding, when non-nil, overrides PadFrac with the AIMD
	// controller's current fraction and feeds each query's recall back.
	AdaptivePadding *AdaptivePadder
	// Workload generates the query ranges; defaults to the paper's
	// uniform workload with the given seed.
	Workload workload.Generator
	// Seed seeds the default workload and peer selection.
	Seed int64
	// Relation and Attribute name the partitions; defaults are synthetic.
	Relation, Attribute string
}

// similarityBins is the similarity histogram bin count, matching the
// paper's 0.1-wide buckets.
const similarityBins = 10

func (q *QualityConfig) withDefaults() QualityConfig {
	out := *q
	if out.Queries <= 0 {
		out.Queries = workload.DefaultQueries
	}
	if out.Workload == nil {
		out.Workload = workload.NewUniform(workload.DefaultDomainLo, workload.DefaultDomainHi, out.Seed)
	}
	if out.Relation == "" {
		out.Relation = "R"
	}
	if out.Attribute == "" {
		out.Attribute = "a"
	}
	return out
}

// QualityResult aggregates a quality run.
type QualityResult struct {
	// Similarity histograms the Jaccard similarity between each measured
	// query and its matched partition (Figs. 6-7); unmatched queries
	// count as similarity 0.
	Similarity *metrics.Histogram
	// Recall accumulates the fraction of each query's answer covered by
	// the match (Figs. 8-10); unmatched queries count as recall 0.
	Recall *metrics.CDF
	// Matched counts measured queries that found any candidate.
	Matched int
	// Exact counts measured queries whose match was identical.
	Exact int
	// Measured is the number of post-warmup queries.
	Measured int
}

// RunQuality drives the workload through the cluster per the paper's
// Section 5 methodology: start empty, look up each query range, record
// the best match's Jaccard similarity and its recall against the query,
// and cache the query's own partition when the match was not exact.
func RunQuality(c *Cluster, cfg QualityConfig) (*QualityResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	res := &QualityResult{
		Similarity: metrics.NewHistogram(0, 1, similarityBins),
		Recall:     &metrics.CDF{},
	}
	warmup := int(float64(cfg.Queries) * workload.DefaultWarmupFrac)
	domLo, domHi := int64(workload.DefaultDomainLo), int64(workload.DefaultDomainHi)
	if u, ok := cfg.Workload.(*workload.Uniform); ok {
		domLo, domHi = u.Lo, u.Hi
	}
	for i := 0; i < cfg.Queries; i++ {
		q := cfg.Workload.Next()
		probe := q
		pad := cfg.PadFrac
		if cfg.AdaptivePadding != nil {
			pad = cfg.AdaptivePadding.Pad()
		}
		if pad > 0 {
			probe = q.Pad(pad, domLo, domHi)
		}
		origin := c.RandomPeer(rng)
		lr, err := origin.Lookup(cfg.Relation, cfg.Attribute, probe, true, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: query %d %s: %w", i, q, err)
		}
		var simJ, recall float64
		if lr.Found {
			matched := lr.Match.Partition.Range
			simJ = probe.Jaccard(matched)
			recall = q.Recall(matched)
		}
		if cfg.AdaptivePadding != nil {
			cfg.AdaptivePadding.Observe(recall)
		}
		if i < warmup {
			continue
		}
		res.Measured++
		if lr.Found {
			res.Matched++
			if lr.Match.Partition.Range == probe {
				res.Exact++
			}
		}
		res.Similarity.Add(simJ)
		res.Recall.Add(recall)
	}
	return res, nil
}
