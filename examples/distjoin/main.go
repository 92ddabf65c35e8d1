// Distjoin: the distributed hash join over the DHT (the Harren et al.
// operation this paper's architecture complements). Two peers hold the
// Patient and Diagnosis relations; every tuple re-hashes by join key to
// its owner peer on the ring; owners join locally and the coordinator —
// a third peer that never sees either full relation — collects only the
// matching pairs.
//
//	go run ./examples/distjoin
package main

import (
	"fmt"
	"log"
	"math/rand"

	"p2prange/internal/djoin"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/relation"
	"p2prange/internal/sim"
)

func main() {
	scheme, err := minhash.NewDefaultScheme(minhash.ApproxMinWise, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := sim.NewCluster(sim.ClusterConfig{
		N:    20,
		Peer: peer.Config{Scheme: scheme.Compiled()},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range cluster.Peers {
		djoin.NewService(p.Peer)
	}

	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 400, Physicians: 20, Diagnoses: 1000, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	patientHolder := cluster.Peers[2].Peer
	diagnosisHolder := cluster.Peers[9].Peer
	coordinator := cluster.Peers[15].Peer
	fmt.Printf("Patient (%d tuples) at %s\n", rels["Patient"].Len(), patientHolder.Ref())
	fmt.Printf("Diagnosis (%d tuples) at %s\n", rels["Diagnosis"].Len(), diagnosisHolder.Ref())
	fmt.Printf("coordinator %s\n\n", coordinator.Ref())

	res, err := djoin.Run(coordinator, "demo",
		djoin.Input{Holder: patientHolder, Rel: rels["Patient"], Key: "patient_id"},
		djoin.Input{Holder: diagnosisHolder, Rel: rels["Diagnosis"], Key: "patient_id"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Patient ⋈ Diagnosis on patient_id: %d pairs in %d protocol messages\n",
		res.Len(), res.Messages)

	// Show a couple of joined rows: patient name + diagnosis.
	nameIdx, _ := res.LeftSchema.ColIndex("name")
	diagIdx, _ := res.RightSchema.ColIndex("diagnosis")
	for i := 0; i < 3 && i < res.Len(); i++ {
		fmt.Printf("  %s — %s\n", res.Left[i][nameIdx], res.Right[i][diagIdx])
	}
}
