package experiments

import (
	"fmt"

	"p2prange/internal/djoin"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/relation"
	"p2prange/internal/sim"
)

func init() {
	Register("join", DistributedJoin)
}

// DistributedJoin measures the Harren-et-al.-style DHT hash join against
// the centralized alternative (ship both relations to the coordinator):
// the distributed form spreads the join work over the ring — the metric
// is the maximum tuples any single peer must buffer — at the cost of
// protocol messages. As the ring grows, per-peer work shrinks while the
// centralized coordinator's stays constant.
func DistributedJoin(p Params) (*Table, error) {
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients:   p.Queries / 10,
		Physicians: 20,
		Diagnoses:  p.Queries / 4,
		Seed:       p.Seed,
	})
	if err != nil {
		return nil, err
	}
	left, right := rels["Patient"], rels["Diagnosis"]
	total := left.Len() + right.Len()
	t := &Table{
		ID:      "join",
		Title:   "Distributed DHT hash join vs centralized join",
		Columns: []string{"peers", "pairs", "msgs", "owners-used", "max-peer-tuples", "centralized-peer-tuples"},
		Notes: fmt.Sprintf("Patient(%d) ⋈ Diagnosis(%d) on patient_id; centralized = both relations at one peer (%d tuples)",
			left.Len(), right.Len(), total),
	}
	scheme, err := sim.Scheme(minhash.ApproxMinWise, p.Seed)
	if err != nil {
		return nil, err
	}
	for _, n := range p.Ns {
		cluster, err := sim.NewCluster(sim.ClusterConfig{N: n, Peer: peer.Config{Scheme: scheme}})
		if err != nil {
			return nil, err
		}
		services := make([]*djoin.Service, n)
		for i, pr := range cluster.Peers {
			services[i] = djoin.NewService(pr.Peer)
		}
		// Count per-owner tuples by intercepting sessions after scatter.
		_, _, err = djoin.Scatter("x", djoin.Input{
			Holder: cluster.Peers[0].Peer, Rel: left, Key: "patient_id", Side: djoin.Left,
		})
		if err != nil {
			return nil, err
		}
		if _, _, err := djoin.Scatter("x", djoin.Input{
			Holder: cluster.Peers[1%n].Peer, Rel: right, Key: "patient_id", Side: djoin.Right,
		}); err != nil {
			return nil, err
		}
		owners, maxTuples := 0, 0
		for _, s := range services {
			if c := s.BufferedTuples("x"); c > 0 {
				owners++
				if c > maxTuples {
					maxTuples = c
				}
			}
		}
		for _, pr := range cluster.Peers {
			_, _ = pr.Call(pr.Ref(), djoin.CleanupReq{Session: "x"})
		}
		// A fresh full run for the pair and message counts.
		res, err := djoin.Run(cluster.Peers[0].Peer, "y",
			djoin.Input{Holder: cluster.Peers[0].Peer, Rel: left, Key: "patient_id"},
			djoin.Input{Holder: cluster.Peers[1%n].Peer, Rel: right, Key: "patient_id"})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.Len()),
			fmt.Sprintf("%d", res.Messages),
			fmt.Sprintf("%d", owners),
			fmt.Sprintf("%d", maxTuples),
			fmt.Sprintf("%d", total),
		)
	}
	return t, nil
}
