package p2prange_test

import (
	"fmt"
	"log"

	"p2prange"
	"p2prange/internal/relation"
)

// The basic flow: cache a range partition, then find it with a similar —
// not identical — query.
func ExampleSystem_Lookup() {
	sys, err := p2prange.New(p2prange.Config{
		Peers:   16,
		Family:  p2prange.ApproxMinWise,
		Measure: p2prange.MatchContainment,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}

	cached, _ := p2prange.NewRange(30, 50)
	sys.Lookup("Patient", "age", cached, true) // miss: caches [30,50]

	query, _ := p2prange.NewRange(30, 49) // 0.95-similar
	m, found, err := sys.Lookup("Patient", "age", query, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found=%v match=%s score=%.2f\n", found, m.Partition.Range, m.Score)
	// Output: found=true match=[30,50] score=1.00
}

// SQL queries resolve their selection leaves through the DHT, falling
// back to the data source (and caching) on a miss.
func ExampleSystem_Query() {
	sys, err := p2prange.New(p2prange.Config{
		Peers:   16,
		Measure: p2prange.MatchContainment,
		Seed:    5,
		Schema:  relation.MedicalSchema(),
	})
	if err != nil {
		log.Fatal(err)
	}
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 200, Physicians: 10, Diagnoses: 500, Seed: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rels {
		if err := sys.AddBase(r); err != nil {
			log.Fatal(err)
		}
	}

	res, err := sys.Query("SELECT COUNT(*) FROM Patient WHERE 30 <= age AND age <= 50")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s = %s (recall %.0f)\n",
		res.Columns[0].Column, res.Rows[0][0], res.ScanRecall["Patient.age"])
	// Output: COUNT(*) = 36 (recall 1)
}
