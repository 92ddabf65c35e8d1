package experiments

import (
	"fmt"

	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/sim"
	"p2prange/internal/store"
)

func init() {
	Register("exact", BaselineExact)
	Register("padding", AblationPadding)
}

// BaselineExact reproduces the paper's Section 3.1 motivation as a
// measurement: caching under exact range keys (SHA-1 of [lo,hi]) only
// helps on identical repeats (~0.2% of the uniform workload), while LSH
// answers a large fraction of queries from similar cached partitions.
func BaselineExact(p Params) (*Table, error) {
	t := &Table{
		ID:      "exact",
		Title:   "Exact range keys (Sec 3.1 strawman) vs LSH",
		Columns: []string{"scheme", "matched%", "exact-repeats", "full-recall%", ">=0.5-recall%"},
		Notes:   qualityNote(p, "containment matching"),
	}
	type cfg struct {
		name   string
		hasher minhash.Hasher
	}
	lsh, err := sim.Scheme(minhash.ApproxMinWise, p.Seed)
	if err != nil {
		return nil, err
	}
	for _, c := range []cfg{
		{"exact-match", minhash.NewExactScheme()},
		{"LSH k=20 l=5", lsh},
	} {
		res, _, err := clusterQuality(p.ClusterN, peer.Config{Scheme: c.hasher, Measure: store.MatchContainment},
			sim.QualityConfig{Queries: p.Queries, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			c.name,
			fmt.Sprintf("%.1f", 100*float64(res.Matched)/float64(res.Measured)),
			fmt.Sprintf("%d", res.Exact),
			fmt.Sprintf("%.1f", res.Recall.AtLeast(0.9999)),
			fmt.Sprintf("%.1f", res.Recall.AtLeast(0.5)),
		)
	}
	return t, nil
}

// AblationPadding sweeps fixed padding fractions and the adaptive padder
// (the paper's "dynamically adjusting padding" future work), reporting
// the Fig. 10 trade-off: more padding answers more queries completely but
// costs recall on the queries it misleads.
func AblationPadding(p Params) (*Table, error) {
	t := &Table{
		ID:      "padding",
		Title:   "Query padding policies (fixed sweep + adaptive)",
		Columns: []string{"policy", "full-recall%", ">=0.8-recall%", "mean-recall"},
		Notes:   qualityNote(p, "containment matching, approx min-wise"),
	}
	run := func(pad float64, adaptive bool) (*sim.QualityResult, error) {
		scheme, err := sim.Scheme(minhash.ApproxMinWise, p.Seed)
		if err != nil {
			return nil, err
		}
		cfg := sim.QualityConfig{Queries: p.Queries, Seed: p.Seed, PadFrac: pad}
		if adaptive {
			cfg.AdaptivePadding = sim.NewAdaptivePadder(0.30)
		}
		res, _, err := clusterQuality(p.ClusterN, peer.Config{Scheme: scheme, Measure: store.MatchContainment}, cfg)
		return res, err
	}
	for _, pad := range []float64{0, 0.10, 0.20, 0.30} {
		res, err := run(pad, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("fixed %.0f%%", pad*100),
			fmt.Sprintf("%.1f", res.Recall.AtLeast(0.9999)),
			fmt.Sprintf("%.1f", res.Recall.AtLeast(0.8)),
			fmt.Sprintf("%.3f", res.Recall.Mean()),
		)
	}
	res, err := run(0, true)
	if err != nil {
		return nil, err
	}
	t.AddRow(
		"adaptive",
		fmt.Sprintf("%.1f", res.Recall.AtLeast(0.9999)),
		fmt.Sprintf("%.1f", res.Recall.AtLeast(0.8)),
		fmt.Sprintf("%.3f", res.Recall.Mean()),
	)
	return t, nil
}
