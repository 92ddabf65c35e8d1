package peer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"p2prange/internal/chord"
	"p2prange/internal/minhash"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/store"
	"p2prange/internal/trace"
	"p2prange/internal/transport"
)

// testCluster builds n peers on a converged ring over an in-memory net.
func testCluster(t testing.TB, n int, cfg Config) ([]*Peer, *transport.Memory) {
	t.Helper()
	if cfg.Scheme == nil {
		s, err := minhash.NewScheme(minhash.ApproxMinWise, 4, 3, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheme = s.Compiled()
	}
	net := transport.NewMemory()
	var peers []*Peer
	seen := map[chord.ID]bool{}
	for i := 0; len(peers) < n; i++ {
		addr := fmt.Sprintf("p%d", i)
		p, err := New(addr, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.Node().ID()] {
			continue
		}
		seen[p.Node().ID()] = true
		net.Register(addr, p.Handle)
		peers = append(peers, p)
	}
	nodes := make([]*chord.Node, n)
	for i, p := range peers {
		nodes[i] = p.Node()
	}
	if err := chord.BuildStableRing(nodes); err != nil {
		t.Fatal(err)
	}
	return peers, net
}

func TestLookupEmptySystem(t *testing.T) {
	peers, _ := testCluster(t, 8, Config{})
	q := rangeset.Range{Lo: 30, Hi: 50}
	lr, err := peers[0].Lookup("R", "a", q, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Found {
		t.Error("empty system found a match")
	}
	if !lr.Stored {
		t.Error("query range should be cached on miss")
	}
	if len(lr.Hops) == 0 {
		t.Error("no hop accounting")
	}
	// The descriptor is now stored at its identifier owners; an exact
	// repeat finds it from any origin peer.
	lr2, err := peers[5].Lookup("R", "a", q, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !lr2.Found || lr2.Match.Partition.Range != q {
		t.Fatalf("exact repeat not found: %+v", lr2)
	}
	if lr2.Match.Score != 1 {
		t.Errorf("exact match score = %g", lr2.Match.Score)
	}
	if lr2.Stored {
		t.Error("exact match must not re-store")
	}
}

func TestLookupNoCache(t *testing.T) {
	peers, _ := testCluster(t, 4, Config{})
	q := rangeset.Range{Lo: 5, Hi: 9}
	if _, err := peers[0].Lookup("R", "a", q, false, nil); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range peers {
		total += p.Store().Len()
	}
	if total != 0 {
		t.Errorf("cache=false stored %d descriptors", total)
	}
}

func TestSimilarRangeMatches(t *testing.T) {
	peers, _ := testCluster(t, 8, Config{Measure: store.MatchContainment})
	if _, err := peers[0].Lookup("R", "a", rangeset.Range{Lo: 30, Hi: 50}, true, nil); err != nil {
		t.Fatal(err)
	}
	lr, err := peers[3].Lookup("R", "a", rangeset.Range{Lo: 30, Hi: 49}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Found {
		t.Fatal("0.95-similar range found no match (k=4, l=3 should collide)")
	}
	if lr.Match.Score != 1 {
		t.Errorf("containment score = %g, want 1 (query inside cached range)", lr.Match.Score)
	}
}

func TestLookupIsolatesRelations(t *testing.T) {
	peers, _ := testCluster(t, 4, Config{})
	q := rangeset.Range{Lo: 0, Hi: 10}
	if _, err := peers[0].Lookup("R", "a", q, true, nil); err != nil {
		t.Fatal(err)
	}
	lr, err := peers[0].Lookup("S", "a", q, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Found {
		t.Error("match leaked across relations")
	}
	lr, err = peers[0].Lookup("R", "b", q, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Found {
		t.Error("match leaked across attributes")
	}
}

func TestPublishAndFetchData(t *testing.T) {
	schema := relation.MedicalSchema()
	peers, _ := testCluster(t, 6, Config{Schema: schema})
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 100, Physicians: 5, Diagnoses: 100, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	holder := peers[2]
	rg := rangeset.Range{Lo: 30, Hi: 50}
	part, err := rels["Patient"].Partition("age", rg)
	if err != nil {
		t.Fatal(err)
	}
	holder.AddPartition(part)
	if holder.PartitionCount() != 1 {
		t.Errorf("PartitionCount = %d", holder.PartitionCount())
	}
	if _, err := holder.Publish(store.Partition{Relation: "Patient", Attribute: "age", Range: rg}, nil); err != nil {
		t.Fatal(err)
	}
	// Another peer finds and fetches it.
	querier := peers[5]
	lr, err := querier.Lookup("Patient", "age", rg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Found || lr.Match.Partition.Holder != holder.Addr() {
		t.Fatalf("lookup = %+v", lr)
	}
	data, err := querier.FetchData(lr.Match, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != part.Data.Len() {
		t.Errorf("fetched %d tuples, holder has %d", data.Len(), part.Data.Len())
	}
	// Fetch of a vanished partition errors cleanly.
	ghost := lr.Match
	ghost.Partition.Range = rangeset.Range{Lo: 1, Hi: 2}
	if _, err := querier.FetchData(ghost, nil); err == nil {
		t.Error("fetch of unheld partition succeeded")
	}
}

func TestPeerIndexFindsOtherBuckets(t *testing.T) {
	// With one peer, the peer-wide index sees every bucket; a query that
	// shares no LSH bucket with the stored range still finds it.
	peers, _ := testCluster(t, 1, Config{UsePeerIndex: true, Measure: store.MatchContainment})
	if _, err := peers[0].Lookup("R", "a", rangeset.Range{Lo: 0, Hi: 400}, true, nil); err != nil {
		t.Fatal(err)
	}
	lr, err := peers[0].Lookup("R", "a", rangeset.Range{Lo: 100, Hi: 120}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Found || lr.Match.Score != 1 {
		t.Fatalf("peer index missed containing range: %+v", lr)
	}
}

func TestHandleBadRequest(t *testing.T) {
	peers, _ := testCluster(t, 1, Config{})
	if _, _, err := peers[0].Handle(trace.Context{}, "nonsense"); err == nil {
		t.Error("bad request accepted")
	}
}

func TestNewRequiresScheme(t *testing.T) {
	if _, err := New("x", transport.NewMemory(), Config{}); err == nil {
		t.Error("peer without scheme accepted")
	}
}

func TestHandoffAndReclaim(t *testing.T) {
	peers, _ := testCluster(t, 6, Config{})
	q := rangeset.Range{Lo: 10, Hi: 90}
	if _, err := peers[0].Lookup("R", "a", q, true, nil); err != nil {
		t.Fatal(err)
	}
	// Find a peer that holds descriptors and hand everything to another.
	var donor *Peer
	for _, p := range peers {
		if p.Store().Len() > 0 {
			donor = p
			break
		}
	}
	if donor == nil {
		t.Fatal("nothing stored anywhere")
	}
	recipient := peers[0]
	if recipient == donor {
		recipient = peers[1]
	}
	moved := donor.Store().Len()
	before := recipient.Store().Len()
	if err := donor.HandoffTo(recipient.Ref()); err != nil {
		t.Fatal(err)
	}
	if donor.Store().Len() != 0 {
		t.Errorf("donor still holds %d", donor.Store().Len())
	}
	if got := recipient.Store().Len(); got != before+moved {
		t.Errorf("recipient holds %d, want %d", got, before+moved)
	}
}

func TestHandoffFailureRestoresBuckets(t *testing.T) {
	peers, net := testCluster(t, 4, Config{})
	if _, err := peers[0].Lookup("R", "a", rangeset.Range{Lo: 0, Hi: 50}, true, nil); err != nil {
		t.Fatal(err)
	}
	var donor *Peer
	for _, p := range peers {
		if p.Store().Len() > 0 {
			donor = p
			break
		}
	}
	if donor == nil {
		t.Skip("no donor")
	}
	had := donor.Store().Len()
	var target *Peer
	for _, p := range peers {
		if p != donor {
			target = p
			break
		}
	}
	net.SetDown(target.Addr(), true)
	if err := donor.HandoffTo(target.Ref()); err == nil {
		t.Error("handoff to dead peer succeeded")
	}
	if donor.Store().Len() != had {
		t.Errorf("failed handoff lost data: %d -> %d", had, donor.Store().Len())
	}
}

func TestIdentifiersDeterministic(t *testing.T) {
	peers, _ := testCluster(t, 2, Config{})
	q := rangeset.Range{Lo: 1, Hi: 5}
	a := peers[0].Identifiers(q)
	b := peers[1].Identifiers(q)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("peers disagree on identifiers (shared scheme broken)")
		}
	}
}

func TestLookupSet(t *testing.T) {
	peers, _ := testCluster(t, 8, Config{Measure: store.MatchContainment})
	// Cache partitions covering the two components.
	for _, rg := range []rangeset.Range{{Lo: 30, Hi: 50}, {Lo: 100, Hi: 130}} {
		if _, err := peers[0].Lookup("R", "a", rg, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Component 0 is 0.95-similar to its cached partition; component 1 is
	// an exact repeat (always findable regardless of key material).
	qs := rangeset.NewSet(rangeset.Range{Lo: 30, Hi: 49}, rangeset.Range{Lo: 100, Hi: 130})
	res, err := peers[3].LookupSet("R", "a", qs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Components) != 2 {
		t.Fatalf("components = %d", len(res.Components))
	}
	for i, c := range res.Components {
		if !c.Found {
			t.Fatalf("component %d found no match", i)
		}
	}
	if res.Recall != 1 {
		t.Errorf("set recall = %g, want 1 (both components contained)", res.Recall)
	}
	if got := res.Covered.Size(); got != qs.Size() {
		t.Errorf("covered %d of %d values", got, qs.Size())
	}
}

func TestLookupSetPartialCoverage(t *testing.T) {
	peers, _ := testCluster(t, 4, Config{Measure: store.MatchContainment})
	// Only the first component has a cached superset.
	if _, err := peers[0].Lookup("R", "a", rangeset.Range{Lo: 0, Hi: 20}, true, nil); err != nil {
		t.Fatal(err)
	}
	qs := rangeset.NewSet(rangeset.Range{Lo: 0, Hi: 19}, rangeset.Range{Lo: 800, Hi: 819})
	res, err := peers[1].LookupSet("R", "a", qs, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recall <= 0 || res.Recall >= 1 {
		t.Errorf("expected partial recall, got %g", res.Recall)
	}
}

func TestLookupSetEmpty(t *testing.T) {
	peers, _ := testCluster(t, 2, Config{})
	res, err := peers[0].LookupSet("R", "a", rangeset.Set{}, false)
	if err != nil || res.Recall != 1 || len(res.Components) != 0 {
		t.Errorf("empty set lookup = %+v, %v", res, err)
	}
}

// TestConcurrentLookups hammers the Section 4 protocol from many
// goroutines with caching enabled; run under -race to validate the peer
// and store locking discipline end to end.
func TestConcurrentLookups(t *testing.T) {
	peers, _ := testCluster(t, 12, Config{Measure: store.MatchContainment})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				lo := rng.Int63n(900)
				q := rangeset.Range{Lo: lo, Hi: lo + rng.Int63n(100) + 1}
				if _, err := peers[rng.Intn(len(peers))].Lookup("R", "a", q, true, nil); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	total := 0
	for _, p := range peers {
		total += p.Store().Len()
	}
	if total == 0 {
		t.Error("nothing cached after concurrent workload")
	}
}

func TestLookupRejectsUnhashableRanges(t *testing.T) {
	peers, _ := testCluster(t, 2, Config{})
	huge := rangeset.Range{Lo: -(1 << 62), Hi: 1 << 62}
	if _, err := peers[0].Lookup("R", "a", huge, false, nil); err == nil {
		t.Error("huge range accepted (would iterate ~2^63 values)")
	}
	overflow := rangeset.Range{Lo: math.MinInt64, Hi: math.MaxInt64}
	if _, err := peers[0].Lookup("R", "a", overflow, false, nil); err == nil {
		t.Error("overflowing range accepted")
	}
	if _, err := peers[0].Publish(store.Partition{Relation: "R", Attribute: "a", Range: huge}, nil); err == nil {
		t.Error("Publish accepted an unhashable range")
	}
	// A maximal-but-legal range still works.
	legal := rangeset.Range{Lo: 0, Hi: MaxRangeSize - 1}
	if _, err := peers[0].Lookup("R", "a", legal, false, nil); err != nil {
		t.Errorf("legal maximal range rejected: %v", err)
	}
}

// TestLookupSurvivesOwnerCrash covers the query-side failure path: an
// identifier's owner crashes after descriptors were cached there; the
// querying peer must mark it suspect, re-resolve the bucket to the
// successor that inherited the arc, and complete the lookup — matching
// via the surviving owners rather than erroring out.
func TestLookupSurvivesOwnerCrash(t *testing.T) {
	peers, net := testCluster(t, 12, Config{})
	q := rangeset.Range{Lo: 30, Hi: 50}
	if _, err := peers[0].Lookup("R", "a", q, true, nil); err != nil {
		t.Fatal(err)
	}
	querier := peers[5]
	var victim chord.Ref
	for _, id := range querier.Identifiers(q) {
		owner, _, err := querier.Node().Lookup(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if owner.ID != querier.Node().ID() && owner.ID != peers[0].Node().ID() {
			victim = owner
			break
		}
	}
	if victim.IsZero() {
		t.Skip("no crashable owner distinct from querier and publisher")
	}
	net.SetDown(victim.Addr, true)

	lr, err := querier.Lookup("R", "a", q, false, nil)
	if err != nil {
		t.Fatalf("lookup with crashed owner %s: %v", victim, err)
	}
	if !lr.Found {
		t.Error("surviving owners had the descriptor but lookup found nothing")
	}
	if !querier.Node().Suspect(victim.ID) {
		t.Error("crashed owner not marked suspect")
	}
}

// TestBatchCappedAtL pins the probe batch bound: a batch carries the
// probes of one lookup, so a peer answers up to l identifiers and
// refuses a larger batch before allocating anything by its count.
func TestBatchCappedAtL(t *testing.T) {
	peers, _ := testCluster(t, 1, Config{})
	l := peers[0].cfg.Scheme.L()
	batch := func(n int) FindBestBatchReq {
		req := FindBestBatchReq{Relation: "R", Attribute: "a", Range: rangeset.Range{Lo: 1, Hi: 9}}
		for i := 0; i < n; i++ {
			req.IDs = append(req.IDs, uint32(i))
		}
		return req
	}
	resp, _, err := peers[0].Handle(trace.Context{}, batch(l))
	if err != nil {
		t.Fatalf("batch of l=%d refused: %v", l, err)
	}
	if br, ok := resp.(FindBestBatchResp); !ok || len(br.Results) != l {
		t.Fatalf("batch of l=%d answered with %#v", l, resp)
	}
	if resp, _, err := peers[0].Handle(trace.Context{}, batch(l+1)); err == nil {
		t.Fatalf("batch of l+1=%d answered with %T", l+1, resp)
	}
}

// TestLoadAwareAgreesWithOwnerProbes pins that load-aware routing only
// changes who serves a probe, never the answer: two identical repaired
// Replicas=2 clusters, one load-aware, run the same seeded lookups and
// must agree on every result — match, hops and store decision.
func TestLoadAwareAgreesWithOwnerProbes(t *testing.T) {
	plain, _ := testCluster(t, 12, Config{Replicas: 2})
	aware, _ := testCluster(t, 12, Config{Replicas: 2, LoadAware: true})
	rng := rand.New(rand.NewSource(7))
	ranges := make([]rangeset.Range, 40)
	for i := range ranges {
		lo := int64(rng.Intn(200))
		ranges[i] = rangeset.Range{Lo: lo, Hi: lo + int64(5+rng.Intn(40))}
	}
	origins := rng.Perm(len(ranges))
	for round := 0; round < 2; round++ {
		for i, q := range ranges {
			o := origins[i] % len(plain)
			want, err := plain[o].Lookup("R", "a", q, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := aware[o].Lookup("R", "a", q, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, range %s: load-aware %+v, owner probes %+v", round, q, got, want)
			}
		}
		for i := range plain {
			plain[i].RepairReplicas()
			aware[i].RepairReplicas()
		}
	}
	// The load-aware cluster must actually have spread probes to
	// replicas, or the comparison above proves nothing.
	diverted := false
	for i := range plain {
		if plain[i].ServedProbes() != aware[i].ServedProbes() {
			diverted = true
		}
	}
	if !diverted {
		t.Error("load-aware cluster served every probe at the owner")
	}
}
