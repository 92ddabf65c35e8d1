package sim

import (
	"testing"

	"p2prange/internal/metrics"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/rangeset"
	"p2prange/internal/store"
)

// TestReplicaRepairUnderChurn kills a descriptor's owner mid-run and
// asserts anti-entropy re-creates the lost copies: after the ring repairs
// and one repair round runs, the query succeeds and the replica set is
// back at full strength.
func TestReplicaRepairUnderChurn(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		N: 16,
		Peer: peer.Config{
			Scheme:   minhash.NewExactScheme(),
			Replicas: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := rangeset.Range{Lo: 30, Hi: 50}
	pub := store.Partition{Relation: "R", Attribute: "a", Range: q, Holder: c.Peers[0].Addr()}
	if _, err := c.Peers[0].Publish(pub, nil); err != nil {
		t.Fatal(err)
	}
	id := c.Peers[0].Identifiers(q)[0]
	holders := func() int {
		n := 0
		for _, p := range c.Peers {
			if len(p.Store().Bucket(id)) > 0 {
				n++
			}
		}
		return n
	}
	if got := holders(); got != 3 {
		t.Fatalf("replica set has %d members after publish, want 3", got)
	}
	for i := 0; i < len(c.Peers); i++ {
		if c.Peers[i].Node().Owns(id) {
			if err := c.Crash(i); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	lr, err := c.Peers[0].Lookup("R", "a", q, false, nil)
	if err != nil || !lr.Found {
		t.Fatalf("query failed after owner crash: found=%v err=%v", lr.Found, err)
	}
	// The crash left the set one copy short; anti-entropy at the new
	// owner must restore it.
	if got := holders(); got != 2 {
		t.Fatalf("replica set has %d members after crash, want 2", got)
	}
	c.RepairReplicas()
	if got := holders(); got != 3 {
		t.Errorf("replica set has %d members after repair, want 3", got)
	}
	lr, err = c.Peers[0].Lookup("R", "a", q, false, nil)
	if err != nil || !lr.Found || lr.Match.Partition.Range != q {
		t.Errorf("query wrong after repair: found=%v err=%v", lr.Found, err)
	}
}

// TestReplicaLoadBalancing is the acceptance run: under a Zipf workload
// with churn, R=3 plus load-aware selection must cut max/mean peer load
// to at most half the single-copy baseline while keeping >= 99% of
// queries answered.
func TestReplicaLoadBalancing(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run")
	}
	base := LoadConfig{
		N:          32,
		Partitions: 120,
		Queries:    1200,
		Crashes:    4,
		Seed:       42,
	}
	single, err := RunLoad(base)
	if err != nil {
		t.Fatal(err)
	}
	repl := base
	repl.Replicas = 2 // R=3 total copies
	repl.LoadAware = true
	balanced, err := RunLoad(repl)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: imbalance=%.2f success=%.1f%%; R=3 load-aware: imbalance=%.2f success=%.1f%% repaired=%d",
		single.Imbalance(), single.SuccessRate(), balanced.Imbalance(), balanced.SuccessRate(), balanced.Repaired)
	if single.Imbalance() < 2 {
		t.Fatalf("baseline not skewed enough to test against (imbalance %.2f)", single.Imbalance())
	}
	if got, want := balanced.Imbalance(), 0.5*single.Imbalance(); got > want {
		t.Errorf("imbalance %.2f with R=3 load-aware, want <= %.2f (half of baseline %.2f)",
			got, want, single.Imbalance())
	}
	if got := balanced.SuccessRate(); got < 99 {
		t.Errorf("success rate %.2f%% under churn, want >= 99%%", got)
	}
}

// TestReplicaHotPromotionInLoadRun checks the popularity machinery end to
// end: a strongly skewed stream must promote at least the hottest bucket
// to the wide replica set (visible as replica.promotions ticking).
func TestReplicaHotPromotionInLoadRun(t *testing.T) {
	before := metrics.Default.Snapshot()
	res, err := RunLoad(LoadConfig{
		N:            24,
		Partitions:   60,
		Queries:      800,
		Replicas:     1, // R=2 cold, 4 hot
		LoadAware:    true,
		HotThreshold: 8,
		Skew:         1.5,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate() < 99 {
		t.Errorf("success rate %.2f%% without churn, want >= 99%%", res.SuccessRate())
	}
	delta := metrics.Default.Snapshot().Sub(before)
	if delta.Counters["replica.promotions"] == 0 {
		t.Error("skewed stream promoted no bucket to the hot replica set")
	}
}
