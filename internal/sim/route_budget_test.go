package sim

import (
	"math/rand"
	"testing"

	"p2prange/internal/metrics"
	"p2prange/internal/peer"
	"p2prange/internal/rangeset"
)

// TestLookupRouteRPCBudget is the routing RPC gate: on a converged
// 16-peer ring with l = 5, 200 seeded range lookups from rotating
// origins may fetch at most the pinned number of route tables per
// lookup (the measured figure plus 10%). Every hop resolves owners from
// its own successor list, so on a ring twice the list's length most
// probes finish within one remote table; a change that loses that
// fails here rather than on the next benchmark run.
func TestLookupRouteRPCBudget(t *testing.T) {
	const (
		peers   = 16
		lookups = 200
		// Measured 1.090 route-table fetches per lookup; pinned +10%.
		budget = 1.20
	)
	c, err := NewCluster(ClusterConfig{N: peers, Peer: peer.Config{Scheme: testScheme(t)}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(37))
	before := metrics.Default.Snapshot()
	for i := 0; i < lookups; i++ {
		lo := rng.Int63n(900)
		q := rangeset.Range{Lo: lo, Hi: lo + 1 + rng.Int63n(100)}
		if _, err := c.Peers[i%peers].Lookup("R", "a", q, false, nil); err != nil {
			t.Fatalf("lookup %d of %v: %v", i, q, err)
		}
	}
	d := metrics.Default.Snapshot().Sub(before).Counters
	if got := d["route.lookups"]; got != lookups*5 {
		t.Fatalf("%d identifier resolutions, want %d", got, lookups*5)
	}
	perLookup := float64(d["chord.route_rpcs"]) / lookups
	t.Logf("%.3f route-table fetches per lookup (%d in %d lookups)", perLookup, d["chord.route_rpcs"], lookups)
	if perLookup > budget {
		t.Errorf("%.3f route-table fetches per lookup, budget %.2f", perLookup, budget)
	}
}

// TestExactHitProbeBudget is the probe-batch gate for exact hits: on a
// converged 8-peer ring, 50 seeded published ranges, each looked up
// exactly from rotating origins, cost exactly one FindBestBatch round
// trip apiece. The first batch already holds the published range with
// score 1, and a lookup stops probing once it has an exact match; a
// change that resumes probing after one fails here rather than on the
// next benchmark run.
func TestExactHitProbeBudget(t *testing.T) {
	const (
		peers  = 8
		ranges = 50
	)
	c, err := NewCluster(ClusterConfig{N: peers, Peer: peer.Config{Scheme: testScheme(t)}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(53))
	catalog, err := c.publishCatalog(ranges, rng, 53)
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.Default.Snapshot()
	for i, part := range catalog {
		res, err := c.Peers[i%peers].Lookup("R", "a", part.Range, false, nil)
		if err != nil {
			t.Fatalf("lookup %d of %v: %v", i, part.Range, err)
		}
		if !res.Found || res.Match.Partition.Range != part.Range || res.Match.Score != 1 {
			t.Fatalf("lookup %d of published %v found %+v (found=%v)", i, part.Range, res.Match, res.Found)
		}
	}
	d := metrics.Default.Snapshot().Sub(before).Counters
	if got := d["peer.batches"]; got != ranges {
		t.Errorf("%d probe batches for %d exact hits, want one each", got, ranges)
	}
}
