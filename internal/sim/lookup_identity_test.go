package sim

import (
	"fmt"
	"slices"
	"testing"

	"p2prange/internal/chord"
	"p2prange/internal/metrics"
	"p2prange/internal/peer"
	"p2prange/internal/store"
	"p2prange/internal/workload"
)

// TestLookupStopsOnlyOnExactMatch checks that stopping a lookup at its
// first exact (score 1) answer loses nothing. On converged 8- and
// 16-peer rings, l = 5, under both measures, 500 seeded caching lookups
// from rotating origins draw from a Zipf-repeating catalog, so exact
// hits, Containment superset ties and misses all occur. Before each
// lookup the test reads every bucket straight from its owner's store
// and folds the answers the way probing all l buckets would (batch
// order, first strict best kept). The lookup's Match and Found must
// equal that fold, it must store exactly when caching and the match is
// not the query's own range, and it must send one batch per distinct
// owner unless an exact answer let it stop early.
func TestLookupStopsOnlyOnExactMatch(t *testing.T) {
	for _, peers := range []int{8, 16} {
		for _, measure := range []store.Measure{store.MatchJaccard, store.MatchContainment} {
			t.Run(fmt.Sprintf("%d-peers-%s", peers, measure), func(t *testing.T) {
				checkLookupIdentity(t, peers, measure)
			})
		}
	}
}

func checkLookupIdentity(t *testing.T, peers int, measure store.Measure) {
	const lookups = 500
	scheme := testScheme(t)
	if l := scheme.L(); l != 5 {
		t.Fatalf("scheme has l = %d, want 5", l)
	}
	c, err := NewCluster(ClusterConfig{N: peers, Peer: peer.Config{Scheme: scheme, Measure: measure}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	byID := make(map[chord.ID]*peer.Host, peers)
	for _, h := range c.Peers {
		byID[h.Node().ID()] = h
	}
	catalog := workload.Take(workload.NewUniform(0, 1000, 41), 120)
	gen := workload.NewZipfChoice(catalog, 1.1, 43)
	batches := metrics.Default.Counter("peer.batches")
	var exact, ties, misses, early int
	for i := 0; i < lookups; i++ {
		origin := c.Peers[i%peers]
		q := gen.Next()

		// The fold of all l buckets, in the lookup's batch order: owners
		// in first-seen order, each owner's probes in probe order.
		ids := origin.Identifiers(q)
		owners := make([]chord.ID, len(ids))
		for j, id := range ids {
			o, _, err := origin.RouteOwner(id)
			if err != nil {
				t.Fatal(err)
			}
			owners[j] = o.ID
		}
		var want store.Match
		found := false
		var targets []chord.ID
		for j := range ids {
			if slices.Contains(targets, owners[j]) {
				continue
			}
			targets = append(targets, owners[j])
			for k := j; k < len(ids); k++ {
				if owners[k] != owners[j] {
					continue
				}
				m, ok := byID[owners[k]].Store().FindBest(ids[k], "R", "a", q, measure, nil)
				if ok && (!found || m.Score > want.Score) {
					want, found = m, true
				}
			}
		}

		before := batches.Value()
		res, err := origin.Lookup("R", "a", q, true, nil)
		if err != nil {
			t.Fatalf("lookup %d of %s: %v", i, q, err)
		}
		sent := int(batches.Value() - before)
		if res.Found != found || (found && res.Match != want) {
			t.Fatalf("lookup %d of %s: found=%v match %+v, all l buckets give found=%v %+v", i, q, res.Found, res.Match, found, want)
		}
		if stored := !(res.Found && res.Match.Partition.Range == q); res.Stored != stored {
			t.Fatalf("lookup %d of %s: stored=%v with match %+v, want %v", i, q, res.Stored, res.Match, stored)
		}
		switch {
		case found && want.Score >= 1:
			if sent > len(targets) {
				t.Fatalf("lookup %d of %s: %d batches for %d owners", i, q, sent, len(targets))
			}
			if sent < len(targets) {
				early++
			}
			if want.Partition.Range == q {
				exact++
			} else {
				ties++
			}
		default:
			if sent != len(targets) {
				t.Fatalf("lookup %d of %s: best score %.3f (found=%v) but %d batches for %d owners", i, q, want.Score, found, sent, len(targets))
			}
			misses++
		}
	}
	t.Logf("%d exact hits, %d score-1 supersets, %d below 1; %d lookups stopped early", exact, ties, misses, early)
	if exact == 0 || misses == 0 || early == 0 {
		t.Errorf("the workload missed a case: %d exact hits, %d below 1, %d stopped early", exact, misses, early)
	}
	if measure == store.MatchContainment && ties == 0 {
		t.Error("no Containment superset reached score 1")
	}
}
