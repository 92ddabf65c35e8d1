package experiments

import (
	"fmt"

	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/sim"
	"p2prange/internal/store"
	"p2prange/internal/workload"
)

func init() {
	Register("6a", Fig6a)
	Register("6b", Fig6b)
	Register("7", Fig7)
	Register("8", Fig8)
	Register("9", Fig9)
	Register("10", Fig10)
}

// clusterQuality builds a fresh n-peer cluster of pc and drives the quality
// workload qc through it.
func clusterQuality(n int, pc peer.Config, qc sim.QualityConfig) (*sim.QualityResult, *sim.Cluster, error) {
	c, err := sim.NewCluster(sim.ClusterConfig{N: n, Peer: pc})
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.RunQuality(c, qc)
	return res, c, err
}

// runQuality builds a fresh cluster for family f and drives the standard
// quality workload through it.
func runQuality(p Params, f minhash.Family, measure store.Measure, padFrac float64) (*sim.QualityResult, error) {
	scheme, err := sim.Scheme(f, p.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := workload.Preset(p.Workload, p.Seed)
	if err != nil {
		return nil, err
	}
	res, _, err := clusterQuality(p.ClusterN,
		peer.Config{Scheme: scheme, Measure: measure, SigCache: p.SigCache},
		sim.QualityConfig{Queries: p.Queries, Seed: p.Seed, PadFrac: padFrac, Workload: gen})
	return res, err
}

func qualityNote(p Params, extra string) string {
	w := p.Workload
	if w == "" {
		w = "uniform"
	}
	s := fmt.Sprintf("%d %s queries over [0,1000], k=%d l=%d, %d peers, first 20%% warm-up excluded",
		p.Queries, w, minhash.DefaultK, minhash.DefaultL, p.ClusterN)
	if extra != "" {
		s += "; " + extra
	}
	return s
}

// similarityTable renders a Figs. 6-7 style histogram.
func similarityTable(id, title string, p Params, f minhash.Family) (*Table, error) {
	res, err := runQuality(p, f, store.MatchJaccard, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"similarity-bin", "% of queries"},
		Notes:   qualityNote(p, fmt.Sprintf("matched=%d/%d", res.Matched, res.Measured)),
	}
	for i := 0; i < res.Similarity.Bins(); i++ {
		t.AddRow(
			fmt.Sprintf("[%.1f,%.1f)", res.Similarity.BinStart(i), res.Similarity.BinStart(i)+0.1),
			fmt.Sprintf("%.2f", res.Similarity.Percent(i)),
		)
	}
	return t, nil
}

// Fig6a reproduces Figure 6(a): the similarity histogram of matched
// partitions under min-wise independent permutations.
func Fig6a(p Params) (*Table, error) {
	return similarityTable("fig6a", "Match similarity, min-wise independent permutations", p, minhash.MinWise)
}

// Fig6b reproduces Figure 6(b): the similarity histogram under the
// approximate (first-iteration) min-wise permutations.
func Fig6b(p Params) (*Table, error) {
	return similarityTable("fig6b", "Match similarity, approximate min-wise permutations", p, minhash.ApproxMinWise)
}

// Fig7 reproduces Figure 7: the similarity histogram under linear
// permutations.
func Fig7(p Params) (*Table, error) {
	return similarityTable("fig7", "Match similarity, linear permutations", p, minhash.Linear)
}

// recallColumns renders survival series ("part of query answered" from
// 1.0 down to 0.0) side by side.
func recallColumns(id, title, notes string, labels []string, results []*sim.QualityResult) *Table {
	t := &Table{ID: id, Title: title, Notes: notes}
	t.Columns = append([]string{"answered>="}, labels...)
	for x := 20; x >= 0; x-- {
		thr := float64(x) / 20
		row := []string{fmt.Sprintf("%.2f", thr)}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.2f", r.Recall.AtLeast(thr)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig8 reproduces Figure 8: recall (part of query answered) for the three
// hash families with Jaccard bucket matching.
func Fig8(p Params) (*Table, error) {
	var results []*sim.QualityResult
	labels := []string{"min-wise", "approx-min-wise", "linear"}
	for _, f := range []minhash.Family{minhash.MinWise, minhash.ApproxMinWise, minhash.Linear} {
		r, err := runQuality(p, f, store.MatchJaccard, 0)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return recallColumns("fig8", "Recall for the hash function families (% of queries answered >= x)",
		qualityNote(p, ""), labels, results), nil
}

// Fig9 reproduces Figure 9: recall under approximate min-wise hashing when
// the bucket match uses containment similarity versus Jaccard similarity.
func Fig9(p Params) (*Table, error) {
	jac, err := runQuality(p, minhash.ApproxMinWise, store.MatchJaccard, 0)
	if err != nil {
		return nil, err
	}
	con, err := runQuality(p, minhash.ApproxMinWise, store.MatchContainment, 0)
	if err != nil {
		return nil, err
	}
	return recallColumns("fig9", "Recall with containment vs Jaccard bucket matching (approx min-wise hashing)",
		qualityNote(p, ""), []string{"containment", "jaccard"},
		[]*sim.QualityResult{con, jac}), nil
}

// Fig10 reproduces Figure 10: recall with 20% query padding versus no
// padding, both with containment matching over approximate min-wise
// hashing; recall is always measured against the unpadded query.
func Fig10(p Params) (*Table, error) {
	padded, err := runQuality(p, minhash.ApproxMinWise, store.MatchContainment, 0.20)
	if err != nil {
		return nil, err
	}
	plain, err := runQuality(p, minhash.ApproxMinWise, store.MatchContainment, 0)
	if err != nil {
		return nil, err
	}
	return recallColumns("fig10", "Recall with 20% query padding (containment matching)",
		qualityNote(p, "padding expands each edge by 20% of range size, clamped to the domain"),
		[]string{"20%-padding", "no-padding"},
		[]*sim.QualityResult{padded, plain}), nil
}
