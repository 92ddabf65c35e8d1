package peer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"p2prange/internal/chord"
	"p2prange/internal/metrics"
	"p2prange/internal/minhash"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/store"
	"p2prange/internal/trace"
	"p2prange/internal/transport"
	"p2prange/internal/wal"
)

// testCluster builds n peers on a converged ring over an in-memory net.
func testCluster(t testing.TB, n int, cfg Config) ([]*Peer, *transport.Memory) {
	t.Helper()
	return testClusterVia(t, n, cfg, nil)
}

// testClusterVia is testCluster with every peer sending through the
// caller wrap builds over the net (the net itself when wrap is nil).
func testClusterVia(t testing.TB, n int, cfg Config, wrap func(*transport.Memory) transport.Caller) ([]*Peer, *transport.Memory) {
	t.Helper()
	if cfg.Scheme == nil {
		s, err := minhash.NewScheme(minhash.ApproxMinWise, 4, 3, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheme = s.Compiled()
	}
	net := transport.NewMemory()
	var caller transport.Caller = net
	if wrap != nil {
		caller = wrap(net)
	}
	var peers []*Peer
	seen := map[chord.ID]bool{}
	for i := 0; len(peers) < n; i++ {
		addr := fmt.Sprintf("p%d", i)
		p, err := New(addr, caller, cfg)
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

// TestClosedLogRefusesAcks pins the store-owned commit barrier: once a
// peer's log is closed, a write it would acknowledge is refused rather
// than acknowledged without reaching disk, and a refused arc transfer
// keeps its buckets.
func TestClosedLogRefusesAcks(t *testing.T) {
	peers, _ := testCluster(t, 1, Config{})
	p := peers[0]
	lg, _, err := wal.Open(wal.Options{Dir: t.TempDir(), CompactEvery: -1}, p.Store())
	if err != nil {
		t.Fatal(err)
	}
	part := store.Partition{Relation: "R", Attribute: "a", Range: rangeset.Range{Lo: 1, Hi: 5}, Holder: "h"}
	if _, _, err := p.Handle(trace.Context{}, StoreReq{ID: 7, Partition: part}); err != nil {
		t.Fatalf("StoreReq on an open log: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = p.Handle(trace.Context{}, StoreReq{ID: 8, Partition: part})
	if err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Errorf("StoreReq on a closed log: err = %v, want not durable", err)
	}
	_, _, err = p.Handle(trace.Context{}, TransferArcReq{From: 0, To: 0})
	if err == nil || !strings.Contains(err.Error(), "arc transfer not durable") {
		t.Errorf("TransferArcReq on a closed log: err = %v, want arc transfer not durable", err)
	}
	if !p.Store().Has(7, part) {
		t.Error("refused arc transfer dropped its buckets")
	}
}

func TestNewRequiresScheme(t *testing.T) {
	if _, err := New("x", transport.NewMemory(), Config{}); err == nil {
		t.Error("peer without scheme accepted")
	}
}

// TestNewRejectsLoadAwareWithoutReplicas pins that load-aware routing,
// which ranks replica sets, is refused rather than silently ignored when
// there are no replicas to rank.
func TestNewRejectsLoadAwareWithoutReplicas(t *testing.T) {
	s := minhash.NewExactScheme()
	if _, err := New("x", transport.NewMemory(), Config{Scheme: s, LoadAware: true}); err == nil {
		t.Error("LoadAware without Replicas accepted")
	}
	if _, err := New("x", transport.NewMemory(), Config{Scheme: s, LoadAware: true, Replicas: 1}); err != nil {
		t.Errorf("LoadAware with Replicas refused: %v", err)
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

// TestShipForgetsDepartedSuccessor pins that log shipping releases the
// WAL retention pin of a successor that left the replica set: the next
// anti-entropy pass ships to the new successor and forgets the old one,
// instead of holding every folded WAL file for a peer it never ships to
// again.
func TestShipForgetsDepartedSuccessor(t *testing.T) {
	// Four assembled nodes, R = 2 (one shipped successor); the owner is
	// durable, so Boot wires its WAL to ship to the replica.
	scheme, err := minhash.NewScheme(minhash.ApproxMinWise, 4, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemory()
	var peers []*Host
	for i := 0; i < 4; i++ {
		hc := HostConfig{Addr: fmt.Sprintf("p%d", i), Caller: net, Peer: Config{Scheme: scheme.Compiled(), Replicas: 1}}
		if i == 0 {
			hc.WAL = wal.Options{Dir: t.TempDir(), CompactEvery: -1}
		}
		h, err := Boot(hc)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		h.ServeMemory(net)
		peers = append(peers, h)
	}
	if err := Place(peers); err != nil {
		t.Fatal(err)
	}
	owner, lg := peers[0], peers[0].Log

	first := owner.Node().Successor()
	owner.RepairReplicas()
	if _, ok := lg.Pins()["push:"+first.Addr]; !ok {
		t.Fatalf("pins after the first pass = %v, want push:%s", lg.Pins(), first.Addr)
	}

	// The first successor leaves; the ring converges without it.
	var rest []*chord.Node
	for _, p := range peers {
		if p.Addr() != first.Addr {
			rest = append(rest, p.Node())
		}
	}
	if err := chord.BuildStableRing(rest); err != nil {
		t.Fatal(err)
	}
	next := owner.Node().Successor()
	owner.RepairReplicas()
	pins := lg.Pins()
	if _, ok := pins["push:"+first.Addr]; ok {
		t.Errorf("pins after the departure = %v, still holds push:%s", pins, first.Addr)
	}
	if _, ok := pins["push:"+next.Addr]; !ok || len(pins) != 1 {
		t.Errorf("pins after the departure = %v, want only push:%s", pins, next.Addr)
	}
}

// TestConcurrentLookups hammers the Section 4 protocol from many
// goroutines with caching enabled; run under -race to validate the peer
// and store locking discipline end to end.
func TestConcurrentLookups(t *testing.T) {
	for _, cfg := range []Config{
		{Measure: store.MatchContainment},
		{Measure: store.MatchContainment, Replicas: 2, LoadAware: true},
	} {
		peers, _ := testCluster(t, 12, cfg)
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
			t.Errorf("LoadAware=%v: %v", cfg.LoadAware, err)
		}
		total := 0
		for _, p := range peers {
			total += p.Store().Len()
		}
		if total == 0 {
			t.Errorf("LoadAware=%v: nothing cached after concurrent workload", cfg.LoadAware)
		}
	}
}

// TestConcurrentTracedLookupsOwnSigOutcome runs traced lookups from many
// goroutines on one peer: each trace records exactly one signature-cache
// outcome, its own, so the traces' hits and misses sum to the signer's
// counters however the calls interleave.
func TestConcurrentTracedLookupsOwnSigOutcome(t *testing.T) {
	peers, _ := testCluster(t, 4, Config{Measure: store.MatchContainment, SigCache: 8})
	querier := peers[0]
	before := querier.SigStats()
	const n = 64
	trees := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := rangeset.Range{Lo: int64(100 * (i % 4)), Hi: int64(100*(i%4) + 50)}
			sp := trace.New("lookup")
			_, err := querier.Lookup("R", "a", q, false, sp)
			sp.End()
			if err != nil {
				errs <- err
				return
			}
			trees[i] = sp.Tree(false)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var hits, misses uint64
	for i, tree := range trees {
		h, m := strings.Count(tree, "sig: hit"), strings.Count(tree, "sig: miss")
		if h+m != 1 {
			t.Fatalf("trace %d records %d hit(s) and %d miss(es), want one outcome:\n%s", i, h, m, tree)
		}
		hits += uint64(h)
		misses += uint64(m)
	}
	d := querier.SigStats().Sub(before)
	if hits != d.Hits || misses != d.Misses || hits+misses != n {
		t.Errorf("traces: %d hits + %d misses; signer: %+v; want both to sum to %d", hits, misses, d, n)
	}
	if hits == 0 {
		t.Error("no trace hit the cache on four repeated ranges")
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
		owner, _, err := querier.Node().Lookup(id, nil, nil)
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

// countingCaller records every request sent through it. With killNext
// set, the first FindBestBatchReq it carries takes its destination down
// just before delivery, as a crash between selection and the probe would.
type countingCaller struct {
	net *transport.Memory

	mu       sync.Mutex
	sent     []sentReq
	killNext bool
	killed   string
}

type sentReq struct {
	addr string
	req  any
}

func (c *countingCaller) CallCtx(addr string, tc trace.Context, req any) (any, []byte, error) {
	c.mu.Lock()
	c.sent = append(c.sent, sentReq{addr, req})
	if _, ok := req.(FindBestBatchReq); ok && c.killNext {
		c.killNext = false
		c.killed = addr
		c.net.SetDown(addr, true)
	}
	c.mu.Unlock()
	return c.net.CallCtx(addr, tc, req)
}

// log returns the requests sent since the last call and forgets them.
func (c *countingCaller) log() []sentReq {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sent
	c.sent = nil
	return out
}

// loadAwareCluster builds the 8-peer Replicas=2 load-aware ring of the
// tests below, sending through a countingCaller, and caches seeded
// lookups so that owners carry descriptors and unequal load gauges.
func loadAwareCluster(t *testing.T) ([]*Peer, *countingCaller) {
	t.Helper()
	var cc *countingCaller
	peers, _ := testClusterVia(t, 8, Config{Replicas: 2, LoadAware: true}, func(net *transport.Memory) transport.Caller {
		cc = &countingCaller{net: net}
		return cc
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		lo := int64(rng.Intn(200))
		q := rangeset.Range{Lo: lo, Hi: lo + int64(5+rng.Intn(40))}
		if _, err := peers[i%len(peers)].Lookup("R", "a", q, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	cc.log()
	return peers, cc
}

// TestLoadAwareLookupBatchesByTarget pins the wire cost of a load-aware
// lookup: no SuccessorListReq (the owner's LoadResp carries its replica
// set) and exactly one FindBestBatchReq per distinct target, the
// querier's own probes being one local batch.
func TestLoadAwareLookupBatchesByTarget(t *testing.T) {
	peers, cc := loadAwareCluster(t)
	l := peers[0].cfg.Scheme.L()
	diverted := metrics.Default.Counter("replica.diverted")
	divertedBefore := diverted.Value()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		querier := peers[i%len(peers)]
		lo := int64(rng.Intn(200))
		q := rangeset.Range{Lo: lo, Hi: lo + int64(5+rng.Intn(40))}
		batches, served := metBatches.Value(), querier.ServedProbes()
		if _, err := querier.Lookup("R", "a", q, false, nil); err != nil {
			t.Fatal(err)
		}
		remote := map[string]int{}
		probes := int(querier.ServedProbes() - served)
		for _, s := range cc.log() {
			switch r := s.req.(type) {
			case transport.SuccessorListReq:
				t.Errorf("lookup %d sent a SuccessorListReq to %s", i, s.addr)
			case FindBestBatchReq:
				remote[s.addr]++
				probes += len(r.IDs)
			}
		}
		for addr, n := range remote {
			if n != 1 {
				t.Errorf("lookup %d sent %d FindBestBatchReqs to %s, want 1", i, n, addr)
			}
		}
		want := len(remote)
		if querier.ServedProbes() > served {
			want++ // the querier's own probes, one local batch
		}
		if got := int(metBatches.Value() - batches); got != want {
			t.Errorf("lookup %d: %d batches for %d distinct targets", i, got, want)
		}
		if probes != l {
			t.Errorf("lookup %d: batches carried %d probes, want l=%d", i, probes, l)
		}
	}
	if diverted.Value() == divertedBefore {
		t.Error("no probe was diverted to a replica, so the lookups never left the owner path")
	}
}

// TestLoadAwareTargetKilledMidLookup crashes a batch's target between
// selection and the probe: the target is suspected and each probe of
// the failed batch is answered by its next candidate, without falling
// back to the owner path.
func TestLoadAwareTargetKilledMidLookup(t *testing.T) {
	peers, cc := loadAwareCluster(t)
	q := rangeset.Range{Lo: 300, Hi: 340}
	if _, err := peers[0].Publish(store.Partition{Relation: "R", Attribute: "a", Range: q}, nil); err != nil {
		t.Fatal(err)
	}
	fallbacks := metrics.Default.Counter("replica.fallbacks")
	for _, querier := range peers {
		cc.log()
		cc.mu.Lock()
		cc.killNext = true
		cc.mu.Unlock()
		before := fallbacks.Value()
		sp := trace.New("lookup")
		lr, err := querier.Lookup("R", "a", q, false, sp)
		sp.End()
		if err != nil {
			t.Fatal(err)
		}
		sent := cc.log()
		cc.mu.Lock()
		killed := cc.killed
		cc.killNext = false
		cc.mu.Unlock()
		if killed == "" {
			continue // every probe was the querier's own: nothing to kill
		}
		if !lr.Found || lr.Match.Partition.Range != q {
			t.Fatalf("lookup after %s died found %+v, want the published range", killed, lr.Match)
		}
		if got := fallbacks.Value() - before; got != 0 {
			t.Errorf("%d probe(s) fell back to the owner path, want every one answered by a candidate", got)
		}
		var lost []uint32 // the probes of the killed batch
		for _, s := range sent {
			if r, ok := s.req.(FindBestBatchReq); ok && s.addr == killed {
				lost = append(lost, r.IDs...)
			}
		}
		// Each lost probe is served by a later candidate, which may be
		// the querier itself, so count it on the trace, not the wire.
		later := 0
		for _, line := range strings.Split(sp.Tree(false), "\n") {
			if strings.Contains(line, "served by") && !strings.Contains(line, "(candidate 1/") {
				later++
			}
		}
		if len(lost) == 0 || later != len(lost) {
			t.Errorf("%d probe(s) served by a later candidate, want the %d of the killed batch:\n%s", later, len(lost), sp.Tree(false))
		}
		for _, p := range peers {
			if p.Addr() == killed && !querier.Node().Suspect(p.Node().ID()) {
				t.Errorf("killed target %s not suspected", killed)
			}
		}
		return
	}
	t.Fatal("no lookup sent a remote batch to kill")
}
