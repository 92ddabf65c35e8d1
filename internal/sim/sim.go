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
	"p2prange/internal/workload"
)

// ClusterConfig parameterizes a simulated cluster.
type ClusterConfig struct {
	// N is the number of peers.
	N int
	// Peer is applied to every peer; Peer.Scheme is required.
	Peer peer.Config
	// Addrs, when non-empty, assigns exact peer addresses (len must be N)
	// instead of the synthetic defaults. Equivalence tests use it to give
	// an in-memory cluster the same addresses — and therefore the same
	// chord IDs and ring geometry — as a live TCP cluster.
	Addrs []string
	// Host, when set, adjusts peer i's assembly before it boots: a data
	// directory and its WAL options, or a caller wrapping the in-memory
	// network (transport.NewFaultCaller, NewRetryCaller). Peers that join
	// later get the index they are appended at.
	Host func(i int, hc *peer.HostConfig)
}

// Cluster is an in-memory system of N peers on a converged chord ring.
// Every peer is a peer.Host, assembled by the stages a live peer boots
// through, with the flight recorder off.
type Cluster struct {
	Net   *transport.Memory
	Peers []*peer.Host
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
	ids := make(map[chord.ID]bool, cfg.N)
	for i := 0; i < cfg.N; i++ {
		addr := uniqueAddr(func(attempt int) string {
			return fmt.Sprintf("10.%d.%d.%d:%d", i>>16&0xff, i>>8&0xff, i&0xff, 4000+attempt)
		}, ids)
		if len(cfg.Addrs) > 0 {
			addr = cfg.Addrs[i]
		}
		h, err := c.boot(i, addr)
		if err == nil && ids[h.Node().ID()] {
			h.Close()
			err = fmt.Errorf("sim: chord ID collision on assigned address %s", addr)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		ids[h.Node().ID()] = true
		h.ServeMemory(c.Net)
		c.Peers = append(c.Peers, h)
	}
	if err := peer.Place(c.Peers); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// uniqueAddr returns the first of name(0), name(1), … whose chord ID is
// not in ids.
func uniqueAddr(name func(attempt int) string, ids map[chord.ID]bool) string {
	for attempt := 0; ; attempt++ {
		if addr := name(attempt); !ids[chord.HashAddr(addr)] {
			return addr
		}
	}
}

// boot assembles peer i of this cluster at addr, ClusterConfig.Host
// applied, without serving it: recovery can be inspected before admit
// puts it on the network.
func (c *Cluster) boot(i int, addr string) (*peer.Host, error) {
	hc := peer.HostConfig{Addr: addr, Caller: c.Net, Peer: c.cfg.Peer}
	if c.cfg.Host != nil {
		c.cfg.Host(i, &hc)
	}
	return peer.Boot(hc)
}

// Close shuts every peer down (checkpointing durable ones).
func (c *Cluster) Close() {
	for _, h := range c.Peers {
		h.Close()
	}
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.Peers) }

// RandomPeer picks a uniformly random peer.
func (c *Cluster) RandomPeer(rng *rand.Rand) *peer.Host {
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

// publishCatalog publishes n distinct uniform ranges of R.a, drawn from
// seed, each from a random origin (rng) that holds it, and returns them
// in publish order. The durable and load drivers seed their rings with it.
func (c *Cluster) publishCatalog(n int, rng *rand.Rand, seed int64) ([]store.Partition, error) {
	gen := workload.NewUniform(workload.DefaultDomainLo, workload.DefaultDomainHi, seed)
	seen := make(map[string]bool, n)
	catalog := make([]store.Partition, 0, n)
	for len(catalog) < n {
		p := store.Partition{Relation: "R", Attribute: "a", Range: gen.Next()}
		if seen[p.Key()] {
			continue
		}
		seen[p.Key()] = true
		origin := c.RandomPeer(rng)
		p.Holder = origin.Addr()
		if _, err := origin.Publish(p, nil); err != nil {
			return nil, fmt.Errorf("sim: publish %s: %w", p.Range, err)
		}
		catalog = append(catalog, p)
	}
	return catalog, nil
}

// StoreByID routes identifier id from peer origin and stores part at the
// owner, returning the chord path length. Scalability runs use it with
// precomputed identifiers so hashing cost is paid once per partition, not
// once per ring size.
func (c *Cluster) StoreByID(origin *peer.Host, id uint32, part store.Partition) (int, error) {
	owner, hops, err := origin.Node().Lookup(id, nil, nil)
	if err != nil {
		return hops, err
	}
	_, err = origin.Call(owner, peer.StoreReq{ID: id, Partition: part})
	return hops, err
}

// RouteOnly resolves the owner of id from origin, returning the path
// length without any storage side effect (Fig. 12's find operations).
func (c *Cluster) RouteOnly(origin *peer.Host, id uint32) (int, error) {
	_, hops, err := origin.Node().Lookup(id, nil, nil)
	return hops, err
}

// ViewSince assembles the cluster observability view: per-peer status
// (ring position, stored descriptors, probes served) plus, as the global
// state, the process-wide metrics delta since prev — simulated peers
// share one registry, so the delta is already cluster-wide and is not
// polluted by earlier runs in the same process. The same rollup rangetop
// computes against a live cluster comes from here for free.
func (c *Cluster) ViewSince(prev metrics.Snapshot) obs.ClusterView {
	g := metrics.Default.Snapshot().Sub(prev)
	nodes := make([]obs.NodeStatus, len(c.Peers))
	for i, p := range c.Peers {
		nodes[i] = p.Status()
		nodes[i].Stable = true // simulated rings are built converged
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
