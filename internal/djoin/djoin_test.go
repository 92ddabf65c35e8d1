package djoin

import (
	"testing"

	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/relation"
	"p2prange/internal/sim"
)

// joinCluster builds a cluster with the join service attached everywhere.
func joinCluster(t *testing.T, n int) (*sim.Cluster, []*Service) {
	t.Helper()
	scheme, err := sim.Scheme(minhash.ApproxMinWise, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sim.NewCluster(sim.ClusterConfig{N: n, Peer: peer.Config{Scheme: scheme}})
	if err != nil {
		t.Fatal(err)
	}
	services := make([]*Service, n)
	for i, p := range c.Peers {
		services[i] = NewService(p.Peer)
	}
	return c, services
}

func medical(t *testing.T) map[string]*relation.Relation {
	t.Helper()
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 150, Physicians: 10, Diagnoses: 400, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rels
}

// nestedLoopJoin is the oracle.
func nestedLoopJoin(l, r *relation.Relation, lk, rk string) int {
	li, _ := l.Schema.ColIndex(lk)
	ri, _ := r.Schema.ColIndex(rk)
	count := 0
	for _, lt := range l.Tuples {
		for _, rt := range r.Tuples {
			if lt[li].Equal(rt[ri]) {
				count++
			}
		}
	}
	return count
}

func TestDistributedJoinMatchesNestedLoop(t *testing.T) {
	c, _ := joinCluster(t, 12)
	rels := medical(t)

	res, err := Run(c.Peers[0].Peer, "s1",
		Input{Holder: c.Peers[3].Peer, Rel: rels["Patient"], Key: "patient_id"},
		Input{Holder: c.Peers[7].Peer, Rel: rels["Diagnosis"], Key: "patient_id"})
	if err != nil {
		t.Fatal(err)
	}
	want := nestedLoopJoin(rels["Patient"], rels["Diagnosis"], "patient_id", "patient_id")
	if res.Len() != want {
		t.Fatalf("distributed join produced %d pairs, nested loop %d", res.Len(), want)
	}
	// Every pair actually matches on the key.
	li, _ := rels["Patient"].Schema.ColIndex("patient_id")
	ri, _ := rels["Diagnosis"].Schema.ColIndex("patient_id")
	for i := range res.Left {
		if !res.Left[i][li].Equal(res.Right[i][ri]) {
			t.Fatalf("pair %d keys differ: %v vs %v", i, res.Left[i][li], res.Right[i][ri])
		}
	}
	if res.Messages == 0 {
		t.Error("no message accounting")
	}
}

func TestDistributedJoinCleansUp(t *testing.T) {
	c, services := joinCluster(t, 8)
	rels := medical(t)
	_, err := Run(c.Peers[0].Peer, "s2",
		Input{Holder: c.Peers[1].Peer, Rel: rels["Physician"], Key: "physician_id"},
		Input{Holder: c.Peers[2].Peer, Rel: rels["Diagnosis"], Key: "physician_id"})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range services {
		if s.Sessions() != 0 {
			t.Errorf("peer %d still holds %d sessions after cleanup", i, s.Sessions())
		}
	}
}

func TestDistributedJoinSessionsIsolated(t *testing.T) {
	c, _ := joinCluster(t, 8)
	rels := medical(t)
	// Scatter one side under session A, then run a full join under
	// session B; A's tuples must not leak into B's result.
	if _, _, err := Scatter("A", Input{Holder: c.Peers[0].Peer, Rel: rels["Diagnosis"], Key: "patient_id", Side: Right}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(c.Peers[0].Peer, "B",
		Input{Holder: c.Peers[1].Peer, Rel: rels["Patient"], Key: "patient_id"},
		Input{Holder: c.Peers[2].Peer, Rel: rels["Diagnosis"], Key: "patient_id"})
	if err != nil {
		t.Fatal(err)
	}
	want := nestedLoopJoin(rels["Patient"], rels["Diagnosis"], "patient_id", "patient_id")
	if res.Len() != want {
		t.Errorf("session isolation broken: %d pairs, want %d", res.Len(), want)
	}
}

func TestDistributedJoinEmptySide(t *testing.T) {
	c, _ := joinCluster(t, 4)
	rels := medical(t)
	empty := relation.NewRelation(rels["Patient"].Schema)
	res, err := Run(c.Peers[0].Peer, "s3",
		Input{Holder: c.Peers[1].Peer, Rel: empty, Key: "patient_id"},
		Input{Holder: c.Peers[2].Peer, Rel: rels["Diagnosis"], Key: "patient_id"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("join with empty side produced %d pairs", res.Len())
	}
}

func TestDistributedJoinBadColumn(t *testing.T) {
	c, _ := joinCluster(t, 4)
	rels := medical(t)
	_, _, err := Scatter("s4", Input{Holder: c.Peers[0].Peer, Rel: rels["Patient"], Key: "nope"})
	if err == nil {
		t.Error("unknown join column accepted")
	}
}

func TestEncodeKeyDistinguishesKinds(t *testing.T) {
	a := EncodeKey(relation.IntVal(5))
	b := EncodeKey(relation.StrVal("5"))
	if a == b {
		t.Error("int 5 and string \"5\" alias")
	}
}

// TestDistributedJoinSpreadsWork verifies the rehash actually distributes
// buckets over many owners (the point of doing the join over the DHT).
func TestDistributedJoinSpreadsWork(t *testing.T) {
	c, services := joinCluster(t, 16)
	rels := medical(t)
	if _, _, err := Scatter("s5", Input{Holder: c.Peers[0].Peer, Rel: rels["Diagnosis"], Key: "patient_id", Side: Left}); err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, s := range services {
		if s.Sessions() > 0 {
			holders++
		}
	}
	if holders < 8 {
		t.Errorf("only %d/16 peers hold join state; rehash not spreading", holders)
	}
	// Cleanup for hygiene.
	for i := range c.Peers {
		_, _ = c.Peers[i].Call(c.Peers[i].Ref(), CleanupReq{Session: "s5"})
	}
}
