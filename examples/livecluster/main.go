// Livecluster: a real TCP deployment on localhost. Eight peers start,
// join a ring through one bootstrap node, stabilize, and then serve
// approximate range lookups over actual sockets — the same protocol the
// simulation runs in memory, including fetching matched partition tuples
// from the holder peer.
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"log"
	"time"

	"p2prange"
	"p2prange/internal/metrics"
	"p2prange/internal/relation"
)

func main() {
	cfg := p2prange.LiveConfig{
		Family:     p2prange.ApproxMinWise,
		Measure:    p2prange.MatchContainment,
		SchemeSeed: 99,
		Schema:     relation.MedicalSchema(),
	}

	// Bootstrap node starts a fresh ring.
	boot, err := p2prange.StartPeer("127.0.0.1:0", "", cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer boot.Close()
	fmt.Printf("bootstrap peer %s\n", boot.Ref())

	peers := []*p2prange.LivePeer{boot}
	for i := 1; i < 8; i++ {
		p, err := p2prange.StartPeer("127.0.0.1:0", boot.Addr(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		peers = append(peers, p)
		fmt.Printf("joined    peer %s\n", p.Ref())
	}

	// Let the stabilization protocol converge the ring.
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range peers {
		if !p.WaitStable(time.Until(deadline)) {
			log.Fatalf("peer %s did not stabilize", p.Ref())
		}
	}
	fmt.Println("ring stabilized")

	// One peer holds real patient data and publishes a partition for ages
	// 30-50.
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 500, Physicians: 20, Diagnoses: 1000, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	holder := peers[3]
	ages, err := p2prange.NewRange(30, 50)
	if err != nil {
		log.Fatal(err)
	}
	if err := holder.AddPartition(rels["Patient"], "age", ages); err != nil {
		log.Fatal(err)
	}
	if err := holder.Publish(holder.Descriptor("Patient", "age", ages)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npeer %s published Patient.age%s\n", holder.Ref(), ages)

	// A different peer asks for a similar — not identical — range.
	querier := peers[6]
	q, err := p2prange.NewRange(30, 49)
	if err != nil {
		log.Fatal(err)
	}
	m, found, err := querier.Lookup("Patient", "age", q, false)
	if err != nil {
		log.Fatal(err)
	}
	if !found {
		log.Fatalf("no match found for %s", q)
	}
	fmt.Printf("peer %s looked up Patient.age%s over TCP\n", querier.Ref(), q)
	fmt.Printf("  matched %s at %s (containment %.2f)\n",
		m.Partition.Range, m.Partition.Holder, m.Score)

	// Fetch the actual tuples from the holder across the network.
	data, err := querier.Fetch(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  fetched %d patient tuples from the holder\n", data.Len())

	// Graceful departure keeps the ring consistent.
	if err := peers[5].Leave(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npeer %s left gracefully; remaining peers keep serving\n", peers[5].Ref())
	if _, found, err = querier.Lookup("Patient", "age", q, false); err != nil {
		log.Fatal(err)
	} else if found {
		fmt.Println("lookup after departure still finds the partition")
	}

	// Abrupt crash: a peer vanishes with no handoff and no notification,
	// leaving stale fingers and successor pointers at every other peer.
	// Transport retries plus successor-list rerouting keep lookups
	// resolving before the stabilization protocol has repaired the ring.
	peers[2].Close()
	fmt.Printf("\npeer %s crashed abruptly\n", peers[2].Ref())
	if _, found, err = querier.Lookup("Patient", "age", q, false); err != nil {
		log.Fatal(err)
	} else if found {
		fmt.Println("lookup right after the crash still finds the partition")
	}
	// The route.* counters are process-wide: they sum all eight peers.
	s := metrics.Default.Snapshot()
	fmt.Printf("  ring fault handling: %d lookups, %d failed, %d retries, %d reroutes\n",
		s.Counters["route.lookups"], s.Counters["route.failed_lookups"], s.Counters["route.retries"], s.Counters["route.rerouted"])
}
