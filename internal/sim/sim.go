package sim

import (
	"fmt"
	"math/rand"

	"p2prange/internal/chord"
	"p2prange/internal/metrics"
	"p2prange/internal/minhash"
	"p2prange/internal/obs"
	"p2prange/internal/peer"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// ClusterConfig parameterizes a simulated cluster.
type ClusterConfig struct {
	// N is the number of peers.
	N int
	// Peer is applied to every peer; Peer.Scheme is required.
	Peer peer.Config
	// WrapCaller, when set, wraps each peer's view of the network before
	// the peer is built — e.g. with transport.NewFaultCaller for fault
	// injection or transport.NewRetryCaller for resilience. Called once
	// per peer with the shared in-memory network as the inner caller.
	WrapCaller func(inner transport.Caller) transport.Caller
	// Addrs, when non-empty, assigns exact peer addresses (len must be N)
	// instead of the synthetic defaults. Equivalence tests use it to give
	// an in-memory cluster the same addresses — and therefore the same
	// chord IDs and ring geometry — as a live TCP cluster.
	Addrs []string
}

// Cluster is an in-memory system of N peers on a converged chord ring.
type Cluster struct {
	Net   *transport.Memory
	Peers []*peer.Peer
	cfg   ClusterConfig
}

// NewCluster builds a converged cluster. Peer addresses are synthetic
// ("10.s.h.p:4000"); in the vanishingly-rare event of a 32-bit chord ID
// collision the address is perturbed until IDs are unique.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sim: cluster size must be positive, got %d", cfg.N)
	}
	if cfg.Peer.Scheme == nil {
		return nil, fmt.Errorf("sim: ClusterConfig.Peer.Scheme is required")
	}
	if len(cfg.Addrs) > 0 && len(cfg.Addrs) != cfg.N {
		return nil, fmt.Errorf("sim: ClusterConfig.Addrs has %d entries for %d peers", len(cfg.Addrs), cfg.N)
	}
	c := &Cluster{Net: transport.NewMemory(), cfg: cfg}
	seen := make(map[chord.ID]bool, cfg.N)
	for i := 0; i < cfg.N; i++ {
		caller := c.peerCaller()
		var p *peer.Peer
		var err error
		for attempt := 0; ; attempt++ {
			addr := fmt.Sprintf("10.%d.%d.%d:%d", i>>16&0xff, i>>8&0xff, i&0xff, 4000+attempt)
			if len(cfg.Addrs) > 0 {
				addr = cfg.Addrs[i]
			}
			p, err = peer.New(addr, caller, cfg.Peer)
			if err != nil {
				return nil, err
			}
			if !seen[p.Node().ID()] {
				break
			}
			if len(cfg.Addrs) > 0 {
				return nil, fmt.Errorf("sim: chord ID collision on assigned address %s", addr)
			}
		}
		seen[p.Node().ID()] = true
		c.Net.Register(p.Addr(), p.Handle)
		c.Peers = append(c.Peers, p)
	}
	nodes := make([]*chord.Node, len(c.Peers))
	for i, p := range c.Peers {
		nodes[i] = p.Node()
	}
	if err := chord.BuildStableRing(nodes); err != nil {
		return nil, err
	}
	return c, nil
}

// peerCaller builds one peer's view of the network.
func (c *Cluster) peerCaller() transport.Caller {
	if c.cfg.WrapCaller != nil {
		return c.cfg.WrapCaller(c.Net)
	}
	return c.Net
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.Peers) }

// RandomPeer picks a uniformly random peer.
func (c *Cluster) RandomPeer(rng *rand.Rand) *peer.Peer {
	return c.Peers[rng.Intn(len(c.Peers))]
}

// Loads returns the number of stored partition descriptors per peer — the
// per-node load of Fig. 11.
func (c *Cluster) Loads() []int {
	out := make([]int, len(c.Peers))
	for i, p := range c.Peers {
		out[i] = p.Store().Len()
	}
	return out
}

// TotalStored sums stored descriptors across peers.
func (c *Cluster) TotalStored() int {
	t := 0
	for _, l := range c.Loads() {
		t += l
	}
	return t
}

// StoreByID routes identifier id from peer origin and stores part at the
// owner, returning the chord path length. Scalability runs use it with
// precomputed identifiers so hashing cost is paid once per partition, not
// once per ring size.
func (c *Cluster) StoreByID(origin *peer.Peer, id uint32, part store.Partition) (int, error) {
	owner, hops, err := origin.Node().Lookup(id, nil, nil)
	if err != nil {
		return hops, err
	}
	if _, err := origin.Call(owner, peer.StoreReq{ID: id, Partition: part}); err != nil {
		return hops, err
	}
	return hops, nil
}

// RouteOnly resolves the owner of id from origin, returning the path
// length without any storage side effect (Fig. 12's find operations).
func (c *Cluster) RouteOnly(origin *peer.Peer, id uint32) (int, error) {
	_, hops, err := origin.Node().Lookup(id, nil, nil)
	return hops, err
}

// View assembles the cluster observability view: per-peer status (ring
// position, stored descriptors, probes served) plus the process-wide
// metrics snapshot as the global state — simulated peers share one
// registry, so the snapshot is already cluster-wide. The same rollup
// rangetop computes against a live cluster comes from here for free.
func (c *Cluster) View() obs.ClusterView {
	return c.viewWith(metrics.Default.Snapshot())
}

// ViewSince is View with the global metrics restricted to the delta
// since prev, so a single experiment's rollup is not polluted by earlier
// runs in the same process.
func (c *Cluster) ViewSince(prev metrics.Snapshot) obs.ClusterView {
	return c.viewWith(metrics.Default.Snapshot().Sub(prev))
}

func (c *Cluster) viewWith(g metrics.Snapshot) obs.ClusterView {
	nodes := make([]obs.NodeStatus, len(c.Peers))
	for i, p := range c.Peers {
		nodes[i] = obs.NodeStatus{
			Addr:      p.Addr(),
			Ref:       p.Ref().String(),
			Successor: p.Node().Successor().String(),
			Stable:    true, // simulated rings are built converged
			Stored:    p.Store().Len(),
			Served:    p.ServedProbes(),
		}
	}
	return obs.Compute(nodes, &g)
}

// Scheme is a convenience for building the paper's default scheme with a
// deterministic seed, compiled for bulk hashing.
func Scheme(f minhash.Family, seed int64) (*minhash.Scheme, error) {
	s, err := minhash.NewDefaultScheme(f, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return s.Compiled(), nil
}
