package p2prange

// One benchmark per paper table/figure: each wraps the corresponding
// experiment driver (internal/experiments) at reduced-but-representative
// scale so `go test -bench=.` regenerates every figure's pipeline. Full
// paper-scale numbers come from `go run ./cmd/rangebench -fig all`;
// EXPERIMENTS.md records the paper-vs-measured comparison. Micro and
// ablation benchmarks cover the design choices DESIGN.md calls out.

import (
	"fmt"
	"math/rand"
	"testing"

	"p2prange/internal/chord"
	"p2prange/internal/djoin"
	"p2prange/internal/experiments"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/sim"
	"p2prange/internal/store"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	driver, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	params := experiments.QuickDefaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver(params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Figure 5 (hash family execution times).
func BenchmarkFig5(b *testing.B) { benchFigure(b, "5") }

// BenchmarkFig6a regenerates Figure 6(a) (min-wise similarity histogram).
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "6a") }

// BenchmarkFig6b regenerates Figure 6(b) (approx min-wise histogram).
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "6b") }

// BenchmarkFig7 regenerates Figure 7 (linear permutation histogram).
func BenchmarkFig7(b *testing.B) { benchFigure(b, "7") }

// BenchmarkFig8 regenerates Figure 8 (recall per hash family).
func BenchmarkFig8(b *testing.B) { benchFigure(b, "8") }

// BenchmarkFig9 regenerates Figure 9 (containment vs Jaccard matching).
func BenchmarkFig9(b *testing.B) { benchFigure(b, "9") }

// BenchmarkFig10 regenerates Figure 10 (20% query padding).
func BenchmarkFig10(b *testing.B) { benchFigure(b, "10") }

// BenchmarkFig11a regenerates Figure 11(a) (load vs ring size).
func BenchmarkFig11a(b *testing.B) { benchFigure(b, "11a") }

// BenchmarkFig11b regenerates Figure 11(b) (load vs stored partitions).
func BenchmarkFig11b(b *testing.B) { benchFigure(b, "11b") }

// BenchmarkFig12a regenerates Figure 12(a) (path length vs ring size).
func BenchmarkFig12a(b *testing.B) { benchFigure(b, "12a") }

// BenchmarkFig12b regenerates Figure 12(b) (path length PDF).
func BenchmarkFig12b(b *testing.B) { benchFigure(b, "12b") }

// BenchmarkBaselineExact regenerates the Section 3.1 exact-key strawman
// comparison.
func BenchmarkBaselineExact(b *testing.B) { benchFigure(b, "exact") }

// BenchmarkBaselineFlood regenerates the unstructured-flooding
// comparison.
func BenchmarkBaselineFlood(b *testing.B) { benchFigure(b, "flood") }

// BenchmarkAblationKLSweep regenerates the (k,l) parameter sweep.
func BenchmarkAblationKLSweep(b *testing.B) { benchFigure(b, "kl") }

// BenchmarkAblationPadding regenerates the padding-policy sweep.
func BenchmarkAblationPadding(b *testing.B) { benchFigure(b, "padding") }

// BenchmarkAblationPeerIndex regenerates the Sec 5.3 peer-index sweep.
func BenchmarkAblationPeerIndex(b *testing.B) { benchFigure(b, "peeridx") }

// BenchmarkAblationWorkloads regenerates the workload-skew comparison.
func BenchmarkAblationWorkloads(b *testing.B) { benchFigure(b, "workloads") }

// BenchmarkCompareDHTs regenerates the Chord-vs-CAN substrate comparison.
func BenchmarkCompareDHTs(b *testing.B) { benchFigure(b, "dht") }

// BenchmarkDistributedJoinExperiment regenerates the DHT-join workload
// distribution comparison.
func BenchmarkDistributedJoinExperiment(b *testing.B) { benchFigure(b, "join") }

// BenchmarkAblationCapacity regenerates the cache-capacity ablation.
func BenchmarkAblationCapacity(b *testing.B) { benchFigure(b, "capacity") }

// BenchmarkAblationVirtualNodes regenerates the virtual-nodes ablation.
func BenchmarkAblationVirtualNodes(b *testing.B) { benchFigure(b, "vnodes") }

// --- Micro-benchmarks: the per-element costs behind Fig. 5 ---

func benchApply(b *testing.B, p minhash.Permutation) {
	b.Helper()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= p.Apply(uint32(i))
	}
	_ = sink
}

// BenchmarkApplyMinWise measures one faithful (per-bit) full permutation.
func BenchmarkApplyMinWise(b *testing.B) {
	benchApply(b, minhash.NewFullPermutation(rand.New(rand.NewSource(1))))
}

// BenchmarkApplyApproxMinWise measures one faithful first-iteration
// permutation.
func BenchmarkApplyApproxMinWise(b *testing.B) {
	benchApply(b, minhash.NewApproxPermutation(rand.New(rand.NewSource(1))))
}

// BenchmarkApplyLinear measures one linear permutation.
func BenchmarkApplyLinear(b *testing.B) {
	benchApply(b, minhash.NewLinearPermutation(rand.New(rand.NewSource(1))))
}

// BenchmarkApplyMinWiseCompiled measures the byte-table compiled form
// quality experiments use.
func BenchmarkApplyMinWiseCompiled(b *testing.B) {
	benchApply(b, minhash.Compile(minhash.NewFullPermutation(rand.New(rand.NewSource(1)))))
}

// BenchmarkMinHashRange measures hashing a 1000-element range with one
// compiled permutation.
func BenchmarkMinHashRange(b *testing.B) {
	p := minhash.Compile(minhash.NewFullPermutation(rand.New(rand.NewSource(1))))
	q := rangeset.Range{Lo: 0, Hi: 999}
	for i := 0; i < b.N; i++ {
		minhash.MinHash(p, q)
	}
}

// BenchmarkSchemeIdentifiers measures the full k=20, l=5 identifier
// computation for an average workload range.
func BenchmarkSchemeIdentifiers(b *testing.B) {
	s, err := minhash.NewDefaultScheme(minhash.ApproxMinWise, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	cs := s.Compiled()
	q := rangeset.Range{Lo: 100, Hi: 433}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Identifiers(q)
	}
}

// --- Chord routing ---

// BenchmarkChordLookup measures one iterative lookup on a 1024-node ring.
func BenchmarkChordLookup(b *testing.B) {
	scheme, err := sim.Scheme(minhash.ApproxMinWise, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := sim.NewCluster(sim.ClusterConfig{N: 1024, Peer: peer.Config{Scheme: scheme}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	origin := c.Peers[0].Node()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := origin.Lookup(rng.Uint32(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	_ = chord.M
}

// --- Store matching ---

// BenchmarkStoreFindBest measures a bucket best-match scan with 100
// candidates.
func BenchmarkStoreFindBest(b *testing.B) {
	s := store.New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		lo := rng.Int63n(1000)
		s.Put(7, store.Partition{
			Relation: "R", Attribute: "a",
			Range: rangeset.Range{Lo: lo, Hi: lo + rng.Int63n(200)}, Holder: "h",
		})
	}
	q := rangeset.Range{Lo: 400, Hi: 600}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FindBest(7, "R", "a", q, store.MatchContainment, nil)
	}
}

// --- Relation selects: index vs scan ---

// BenchmarkSelectRange compares full-scan partition materialization with
// the sorted-index path on a 100k-tuple relation.
func BenchmarkSelectRange(b *testing.B) {
	rs := &relation.RelationSchema{Name: "T", Columns: []relation.Column{
		{Name: "k", Type: relation.TInt},
	}}
	r := relation.NewRelation(rs)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		if err := r.Insert(relation.Tuple{relation.IntVal(rng.Int63n(1000000))}); err != nil {
			b.Fatal(err)
		}
	}
	q := rangeset.Range{Lo: 500000, Hi: 510000}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.SelectRange("k", q); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := r.BuildIndex("k"); err != nil {
		b.Fatal(err)
	}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.SelectRange("k", q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: XOR group size (k) ---

// BenchmarkAblationGroupSize compares identifier computation at k=1
// (single hash) against the paper's k=20 XOR group.
func BenchmarkAblationGroupSize(b *testing.B) {
	for _, k := range []int{1, 5, 20} {
		k := k
		b.Run(map[int]string{1: "k=1", 5: "k=5", 20: "k=20"}[k], func(b *testing.B) {
			s, err := minhash.NewScheme(minhash.ApproxMinWise, k, 5, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			cs := s.Compiled()
			q := rangeset.Range{Lo: 100, Hi: 433}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.Identifiers(q)
			}
		})
	}
}

// --- End-to-end protocol ---

// BenchmarkLookupProtocol measures one full Section 4 lookup (hash + 5
// routes + 5 bucket probes) on a warm 64-peer system.
func BenchmarkLookupProtocol(b *testing.B) {
	scheme, err := sim.Scheme(minhash.ApproxMinWise, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := sim.NewCluster(sim.ClusterConfig{N: 64, Peer: peer.Config{Scheme: scheme}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	// Warm the caches with 500 ranges.
	for i := 0; i < 500; i++ {
		lo := rng.Int63n(1000)
		q := rangeset.Range{Lo: lo, Hi: min64(lo+rng.Int63n(300), 1000)}
		if _, err := c.Peers[i%64].Lookup("R", "a", q, true, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(1000)
		q := rangeset.Range{Lo: lo, Hi: min64(lo+rng.Int63n(300), 1000)}
		if _, err := c.Peers[i%64].Lookup("R", "a", q, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// BenchmarkDistributedJoin measures the full DHT hash join of the
// medical Patient and Diagnosis relations on a 16-peer ring.
func BenchmarkDistributedJoin(b *testing.B) {
	scheme, err := sim.Scheme(minhash.ApproxMinWise, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := sim.NewCluster(sim.ClusterConfig{N: 16, Peer: peer.Config{Scheme: scheme}})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range c.Peers {
		djoin.NewService(p)
	}
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 200, Physicians: 10, Diagnoses: 500, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := djoin.Run(c.Peers[0], fmt.Sprintf("b%d", i),
			djoin.Input{Holder: c.Peers[1], Rel: rels["Patient"], Key: "patient_id"},
			djoin.Input{Holder: c.Peers[2], Rel: rels["Diagnosis"], Key: "patient_id"})
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("empty join")
		}
	}
}
