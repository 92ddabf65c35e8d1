package p2prange

import (
	"strings"
	"testing"

	"p2prange/internal/relation"
)

// TestLookupTraceGolden pins the exact span tree of one range lookup on a
// small 8-peer system: publish a partition, look up the same range, and
// compare the timings-off rendering line for line. Everything in the tree
// is deterministic — simulated addresses are fixed, chord IDs are SHA-1
// of the address, the LSH key material and the querying-peer choice come
// from the seed — so any change to routing, probing, or trace rendering
// shows up as a diff here.
func TestLookupTraceGolden(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 8, Seed: 1})
	rg, err := NewRange(30, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(PartitionInfo{Relation: "Patient", Attribute: "age", Range: rg}); err != nil {
		t.Fatal(err)
	}
	_, found, tr, err := sys.LookupTraced("Patient", "age", rg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("published range not found")
	}
	if tr == nil || !tr.On() {
		t.Fatal("LookupTraced returned no trace")
	}
	if tr.Duration() <= 0 {
		t.Error("trace root has no duration")
	}

	// The tree shows the coalesced wire protocol: one routing child per
	// probe, then one batch round trip per distinct owner carrying the
	// grafted serve span and the per-probe outcomes, until a batch
	// returns an exact match: the first one here does, so the lookup
	// stops and the other three owners are never asked. This is the
	// same path untraced lookups take, so the flight recorder's
	// always-sampled root changes no RPC count.
	const want = `lookup Patient.age [30,50] from 10.0.0.0:4000
├─ sig: miss
├─ probe 1/5 id=cf7d4f9f
│  ├─ shortcut: 0b3371f0@10.0.0.2:4000 via successor list
│  └─ owner: 0b3371f0@10.0.0.2:4000 hops=1
├─ probe 2/5 id=69c1a38f
│  └─ owner: 7dceec98@10.0.0.0:4000 hops=0
├─ probe 3/5 id=86e9e0fd
│  ├─ shortcut: 90d9e78d@10.0.0.3:4000 via successor list
│  └─ owner: 90d9e78d@10.0.0.3:4000 hops=1
├─ probe 4/5 id=4cec38e0
│  ├─ shortcut: 534daff3@10.0.0.4:4000 via successor list
│  └─ owner: 534daff3@10.0.0.4:4000 hops=1
├─ probe 5/5 id=61cd1ab1
│  └─ owner: 7dceec98@10.0.0.0:4000 hops=0
├─ batch @10.0.0.2:4000: 1 probe(s)
│  ├─ serve FindBestBatch @10.0.0.2:4000
│  │  ├─ from: 10.0.0.0:4000
│  │  ├─ batch: 1 probe(s)
│  │  └─ best: id=cf7d4f9f [30,50] score=1.000
│  └─ match: probe 1: [30,50] score=1.000
├─ stop: exact match
└─ store: skipped (exact match)
`
	if got := tr.Tree(false); got != want {
		t.Errorf("trace tree changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLoadAwareLookupTraceGolden pins the span tree of load-aware
// lookups on a replicated 8-peer system: routing stays under each probe,
// a "select" span holds the lookup's one load round and each probe's
// ranking, and probes then travel in one batch per target, whose span
// carries the serve span of the member that answered, the replica
// selection of each probe and its outcome.
func TestLoadAwareLookupTraceGolden(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 8, Seed: 1, Replicas: 2, LoadAware: true})
	rg, err := NewRange(30, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(PartitionInfo{Relation: "Patient", Attribute: "age", Range: rg}); err != nil {
		t.Fatal(err)
	}
	// On an idle ring every gauge ties, so each probe's target is its
	// owner; the first batch answers with the exact match, so the rest
	// are never sent.
	const first = `lookup Patient.age [30,50] from 10.0.0.0:4000
├─ sig: miss
├─ probe 1/5 id=cf7d4f9f
│  ├─ shortcut: 0b3371f0@10.0.0.2:4000 via successor list
│  └─ owner: 0b3371f0@10.0.0.2:4000 hops=1
├─ probe 2/5 id=69c1a38f
│  └─ owner: 7dceec98@10.0.0.0:4000 hops=0
├─ probe 3/5 id=86e9e0fd
│  ├─ shortcut: 90d9e78d@10.0.0.3:4000 via successor list
│  └─ owner: 90d9e78d@10.0.0.3:4000 hops=1
├─ probe 4/5 id=4cec38e0
│  ├─ shortcut: 534daff3@10.0.0.4:4000 via successor list
│  └─ owner: 534daff3@10.0.0.4:4000 hops=1
├─ probe 5/5 id=61cd1ab1
│  └─ owner: 7dceec98@10.0.0.0:4000 hops=0
├─ select
│  ├─ replica: probe 1: 3 candidate(s), least loaded 0b3371f0@10.0.0.2:4000 load=0
│  ├─ replica: probe 2: 3 candidate(s), least loaded 7dceec98@10.0.0.0:4000 load=0
│  ├─ replica: probe 3: 3 candidate(s), least loaded 90d9e78d@10.0.0.3:4000 load=0
│  ├─ replica: probe 4: 3 candidate(s), least loaded 534daff3@10.0.0.4:4000 load=0
│  └─ replica: probe 5: 3 candidate(s), least loaded 7dceec98@10.0.0.0:4000 load=0
├─ batch @10.0.0.2:4000: 1 probe(s)
│  ├─ serve FindBestBatch @10.0.0.2:4000
│  │  ├─ from: 10.0.0.0:4000
│  │  ├─ batch: 1 probe(s)
│  │  └─ best: id=cf7d4f9f [30,50] score=1.000
│  ├─ replica: probe 1: served by 0b3371f0@10.0.0.2:4000 load=0 (candidate 1/3)
│  └─ match: probe 1: [30,50] score=1.000
├─ stop: exact match
└─ store: skipped (exact match)
`
	// The first lookup loaded the one owner it probed, 10.0.0.2, so the
	// second, from another peer, diverts probe 1 to its idle replica
	// 10.0.0.1, whose exact answer again ends the lookup.
	const second = `lookup Patient.age [30,50] from 10.0.0.6:4000
├─ sig: miss
├─ probe 1/5 id=cf7d4f9f
│  ├─ shortcut: 0b3371f0@10.0.0.2:4000 via successor list
│  └─ owner: 0b3371f0@10.0.0.2:4000 hops=1
├─ probe 2/5 id=69c1a38f
│  ├─ shortcut: 7dceec98@10.0.0.0:4000 via successor list
│  └─ owner: 7dceec98@10.0.0.0:4000 hops=1
├─ probe 3/5 id=86e9e0fd
│  ├─ shortcut: 90d9e78d@10.0.0.3:4000 via successor list
│  └─ owner: 90d9e78d@10.0.0.3:4000 hops=1
├─ probe 4/5 id=4cec38e0
│  ├─ shortcut: 534daff3@10.0.0.4:4000 via successor list
│  └─ owner: 534daff3@10.0.0.4:4000 hops=1
├─ probe 5/5 id=61cd1ab1
│  ├─ shortcut: 7dceec98@10.0.0.0:4000 via successor list
│  └─ owner: 7dceec98@10.0.0.0:4000 hops=1
├─ select
│  ├─ replica: probe 1: 3 candidate(s), least loaded 2b45b454@10.0.0.1:4000 load=0
│  ├─ replica: probe 2: 3 candidate(s), least loaded 7dceec98@10.0.0.0:4000 load=0
│  ├─ replica: probe 3: 3 candidate(s), least loaded 90d9e78d@10.0.0.3:4000 load=0
│  ├─ replica: probe 4: 3 candidate(s), least loaded 534daff3@10.0.0.4:4000 load=0
│  └─ replica: probe 5: 3 candidate(s), least loaded 7dceec98@10.0.0.0:4000 load=0
├─ batch @10.0.0.1:4000: 1 probe(s)
│  ├─ serve FindBestBatch @10.0.0.1:4000
│  │  ├─ from: 10.0.0.6:4000
│  │  ├─ batch: 1 probe(s)
│  │  └─ best: id=cf7d4f9f [30,50] score=1.000
│  ├─ replica: probe 1: served by 2b45b454@10.0.0.1:4000 load=0 (candidate 1/3)
│  └─ match: probe 1: [30,50] score=1.000
├─ stop: exact match
└─ store: skipped (exact match)
`
	for i, want := range []string{first, second} {
		_, found, tr, err := sys.LookupTraced("Patient", "age", rg, true)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("lookup %d: published range not found", i+1)
		}
		if got := tr.Tree(false); got != want {
			t.Errorf("lookup %d: trace tree changed:\ngot:\n%s\nwant:\n%s", i+1, got, want)
		}
	}
}

// TestQueryTraced checks the SQL path end to end: the trace tree covers
// every stage of the execution — the scan leaf with its DHT lookup and
// probes inside, the source fallback, and the join/projection stage.
func TestQueryTraced(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 8, Seed: 1, Schema: relation.MedicalSchema()})
	rels, err := relation.GenerateMedical(relation.DefaultMedicalConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rels {
		if err := sys.AddBase(r); err != nil {
			t.Fatal(err)
		}
	}
	res, tr, err := sys.QueryTraced("SELECT name FROM Patient WHERE 30 <= age AND age <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || tr == nil {
		t.Fatal("QueryTraced returned nil result or trace")
	}
	tree := tr.Tree(false)
	for _, want := range []string{
		"scan Patient.age [30,50]",
		"lookup Patient.age [30,50]",
		"probe 1/5",
		"sig:",
		"fallback:",
		"join+project",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace tree missing %q:\n%s", want, tree)
		}
	}
	// Untraced execution of the same query must yield the same rows.
	sys2 := newTestSystem(t, Config{Peers: 8, Seed: 1, Schema: relation.MedicalSchema()})
	rels2, _ := relation.GenerateMedical(relation.DefaultMedicalConfig())
	for _, r := range rels2 {
		if err := sys2.AddBase(r); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := sys2.Query("SELECT name FROM Patient WHERE 30 <= age AND age <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(res2.Rows) {
		t.Errorf("traced run returned %d rows, untraced %d", len(res.Rows), len(res2.Rows))
	}
}
