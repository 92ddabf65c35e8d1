package p2prange

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"p2prange/internal/chord"
	"p2prange/internal/flight"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/relation"
	"p2prange/internal/sim"
	"p2prange/internal/trace"
)

// TestStitchedTreeTransportEquivalence pins the propagation contract: one
// lookup produces the identical stitched trace over the in-memory
// transport and over real TCP — same spans, same serve-side attribution,
// same hop counts — because the tree reflects the protocol, not the wire.
// The in-memory cluster is given the live peers' exact addresses, so both
// rings have the same chord IDs and ideal fingers.
func TestStitchedTreeTransportEquivalence(t *testing.T) {
	peers := liveRing(t, 6)
	// Stabilization makes successors correct; force every finger to its
	// ideal entry so live routing matches BuildStableRing's geometry
	// instead of depending on how many fix-fingers rounds have elapsed.
	for _, lp := range peers {
		for k := uint(0); k < chord.M; k++ {
			if err := lp.node.Node().FixFinger(k); err != nil {
				t.Fatalf("fix finger %d at %s: %v", k, lp.Ref(), err)
			}
		}
	}

	addrs := make([]string, len(peers))
	for i, lp := range peers {
		addrs[i] = lp.Addr()
	}
	// Same scheme parameters as liveRing: K=4, L=3, seed 77.
	raw, err := minhash.NewScheme(Family(0), 4, 3, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := sim.NewCluster(sim.ClusterConfig{
		N:     len(addrs),
		Addrs: addrs,
		Peer: peer.Config{
			Scheme:  raw.Compiled(),
			Measure: MatchContainment,
			Schema:  relation.MedicalSchema(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Publish the same descriptor in both worlds: same holder address,
	// same identifiers, same owners.
	rg, _ := NewRange(30, 50)
	part := PartitionInfo{Relation: "Patient", Attribute: "age", Range: rg, Holder: addrs[2]}
	if err := peers[2].Publish(part); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Peers[2].Publish(part, nil); err != nil {
		t.Fatal(err)
	}

	// The querying peer must not own q's first identifier: its batch goes
	// first, and the [30,50] descriptor contains q, so an exact (score 1)
	// answer there would end the lookup with no remote serve span to
	// compare. The in-memory twin has the same ring, so it names the
	// owners without touching the live one.
	q, _ := NewRange(30, 49)
	origin := -1
	for i := range mem.Peers {
		if !ownsFirst(t, mem.Peers[i], q) {
			origin = i
			break
		}
	}
	if origin < 0 {
		t.Fatal("every peer owns q's first identifier")
	}
	_, found, liveTr, err := peers[origin].LookupTraced("Patient", "age", q, false)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("lookup over TCP found nothing")
	}
	liveTree := liveTr.Tree(false)

	sp := trace.New(fmt.Sprintf("lookup %s.%s %s from %s", "Patient", "age", q, addrs[origin]))
	lr, err := mem.Peers[origin].Lookup("Patient", "age", q, false, sp)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Found {
		t.Fatal("lookup over the in-memory transport found nothing")
	}
	memTree := sp.Tree(false)

	if liveTree != memTree {
		t.Errorf("stitched trees differ across transports:\nTCP:\n%s\nin-memory:\n%s", liveTree, memTree)
	}

	// The tree must carry serve spans attributed to peers other than the
	// origin — the propagated fragments, not just local work. Coalesced
	// lookups serve probes through the batch protocol, so the grafted
	// spans read "serve FindBestBatch @addr".
	remotes := map[string]bool{}
	for _, line := range strings.Split(liveTree, "\n") {
		i := strings.Index(line, "serve FindBestBatch @")
		if i < 0 {
			continue
		}
		addr := strings.TrimSpace(line[i+len("serve FindBestBatch @"):])
		if addr != addrs[origin] {
			remotes[addr] = true
		}
	}
	if len(remotes) == 0 {
		t.Errorf("no remote serve spans in the stitched tree:\n%s", liveTree)
	}
}

// TestFlightTailSamplingEquivalence pins the flight recorder's core
// promise: a query retained by tail sampling renders the same stitched
// tree the user would have gotten by asking for a trace up front. One
// lookup runs over TCP with no tracing flag anywhere — only the
// always-on recorder observes it — then the identical lookup runs under
// explicit LookupTraced. The kept entry's tree and the explicit trace
// must be byte-identical (timings excluded), and both must carry serve
// spans grafted back from remote peers: tail sampling loses nothing
// versus up-front tracing, because the two share one instrumented path.
func TestFlightTailSamplingEquivalence(t *testing.T) {
	peers := liveRing(t, 6)
	// Pin every finger to its ideal entry so both lookups route through
	// an identical, converged geometry.
	for _, lp := range peers {
		for k := uint(0); k < chord.M; k++ {
			if err := lp.node.Node().FixFinger(k); err != nil {
				t.Fatalf("fix finger %d at %s: %v", k, lp.Ref(), err)
			}
		}
	}

	rg, _ := NewRange(30, 50)
	part := PartitionInfo{Relation: "Patient", Attribute: "age", Range: rg, Holder: peers[2].Addr()}
	if err := peers[2].Publish(part); err != nil {
		t.Fatal(err)
	}

	// The untraced run. cache=false on both lookups so neither mutates
	// partition-cache state the other would then route around.
	q, _ := NewRange(30, 49)

	// The acceptance bar below needs a remote serve span, but on random
	// ports the origin can own q's first identifier; its own batch then
	// goes first, and since [30,50] contains q that batch can answer
	// exactly and end the lookup. Exactly one peer owns that identifier,
	// so its neighbour in the list does not.
	origin := peers[4]
	if ownsFirst(t, origin.node.Host, q) {
		origin = peers[5]
	}
	rec := origin.Flight()
	if !rec.On() {
		t.Fatal("flight recorder must be on with a default LiveConfig")
	}
	_, found, err := origin.LookupOnce("Patient", "age", q, false)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("untraced lookup found nothing")
	}

	wantRoot := fmt.Sprintf("lookup %s.%s %s from %s", "Patient", "age", q, origin.Addr())
	var kept *flight.Entry
	for _, e := range rec.Entries(flight.RingRecent) {
		if e.Name == wantRoot {
			kept = e
		}
	}
	if kept == nil {
		t.Fatalf("untraced lookup %q not in the flight recorder's recent ring", wantRoot)
	}
	keptTree := kept.Root.Tree(false)

	// The same query under an explicit trace.
	_, found, tr, err := origin.LookupTraced("Patient", "age", q, false)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("explicitly traced lookup found nothing")
	}
	explicitTree := tr.Tree(false)

	if keptTree != explicitTree {
		t.Errorf("tail-sampled tree differs from the explicit trace:\nflight recorder:\n%s\nexplicit -trace:\n%s", keptTree, explicitTree)
	}

	// The acceptance bar: with no flags set, the retained tree is the
	// full stitched protocol run, remote serve fragments included — not
	// just the local root.
	remote := false
	for _, line := range strings.Split(keptTree, "\n") {
		i := strings.Index(line, "serve FindBestBatch @")
		if i < 0 {
			continue
		}
		if strings.TrimSpace(line[i+len("serve FindBestBatch @"):]) != origin.Addr() {
			remote = true
		}
	}
	if !remote {
		t.Errorf("no remote serve spans in the tail-sampled tree:\n%s", keptTree)
	}
}

// ownsFirst reports whether p owns q's first identifier, whose owner a
// lookup from p (load-aware routing off) sends its first batch to.
func ownsFirst(t *testing.T, p *peer.Host, q Range) bool {
	t.Helper()
	owner, _, err := p.RouteOwner(p.Identifiers(q)[0])
	if err != nil {
		t.Fatal(err)
	}
	return owner.ID == p.Node().ID()
}
