package flood

import (
	"fmt"
	"math/rand"

	"p2prange/internal/metrics"
	"p2prange/internal/rangeset"
	"p2prange/internal/store"
)

// The Default-registry flood.* family: queries issued, overlay messages
// sent, and peers reached — the O(degree^TTL) cost the paper's
// introduction argues against.
var (
	metFloodQueries  = metrics.Default.Counter("flood.queries")
	metFloodMessages = metrics.Default.Counter("flood.messages")
	metFloodVisited  = metrics.Default.Counter("flood.visited")
)

// Config parameterizes an overlay.
type Config struct {
	// N is the number of peers.
	N int
	// Degree is the target number of neighbors per peer (>= 2 for a
	// connected-ish overlay).
	Degree int
	// Seed drives overlay wiring.
	Seed int64
}

// Network is a random overlay of peers with local (unindexed) caches.
type Network struct {
	neighbors [][]int
	caches    []map[string][]store.Partition // per peer: "rel.attr" -> partitions
}

// New builds a connected random overlay: each peer links to one random
// earlier peer (spanning tree, guaranteeing connectivity) plus random
// extra edges until the average degree target is met.
func New(cfg Config) (*Network, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("flood: N must be positive, got %d", cfg.N)
	}
	if cfg.Degree < 2 {
		cfg.Degree = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{
		neighbors: make([][]int, cfg.N),
		caches:    make([]map[string][]store.Partition, cfg.N),
	}
	for i := range n.caches {
		n.caches[i] = make(map[string][]store.Partition)
	}
	addEdge := func(a, b int) {
		n.neighbors[a] = append(n.neighbors[a], b)
		n.neighbors[b] = append(n.neighbors[b], a)
	}
	for i := 1; i < cfg.N; i++ {
		addEdge(i, rng.Intn(i))
	}
	extra := cfg.N * (cfg.Degree - 2) / 2
	for e := 0; e < extra; e++ {
		a, b := rng.Intn(cfg.N), rng.Intn(cfg.N)
		if a != b {
			addEdge(a, b)
		}
	}
	return n, nil
}

// N returns the overlay size.
func (n *Network) N() int { return len(n.neighbors) }

// Neighbors returns peer p's adjacency list (shared slice; do not modify).
func (n *Network) Neighbors(p int) []int { return n.neighbors[p] }

// Cache stores a partition descriptor at the given peer's local cache —
// unstructured systems keep data wherever it materialized.
func (n *Network) Cache(peerID int, part store.Partition) {
	key := part.Relation + "." + part.Attribute
	for _, existing := range n.caches[peerID][key] {
		if existing.Range == part.Range {
			return
		}
	}
	n.caches[peerID][key] = append(n.caches[peerID][key], part)
}

// CacheLen returns the number of descriptors cached at a peer.
func (n *Network) CacheLen(peerID int) int {
	total := 0
	for _, ps := range n.caches[peerID] {
		total += len(ps)
	}
	return total
}

// Result is the outcome of one flooded query.
type Result struct {
	Match store.Match
	Found bool
	// Messages is the number of overlay messages sent (one per edge
	// traversal, the standard flooding cost metric).
	Messages int
	// Visited is the number of distinct peers reached (the flood
	// horizon).
	Visited int
}

// Query floods from origin with the given TTL, scanning every reached
// peer's local cache for the best match under measure. TTL 0 searches
// only the origin.
func (n *Network) Query(origin int, rel, attribute string, q rangeset.Range, measure store.Measure, ttl int) Result {
	if origin < 0 || origin >= len(n.neighbors) {
		return Result{}
	}
	metFloodQueries.Inc()
	key := rel + "." + attribute
	var res Result
	visited := make(map[int]bool, 64)
	frontier := []int{origin}
	visited[origin] = true
	for depth := 0; depth <= ttl && len(frontier) > 0; depth++ {
		for _, p := range frontier {
			res.Visited++
			for _, cand := range n.caches[p][key] {
				score := measure.Score(q, cand.Range)
				if score > 0 && (!res.Found || score > res.Match.Score) {
					res.Match = store.Match{Partition: cand, Score: score}
					res.Found = true
				}
			}
		}
		var next []int
		if depth < ttl {
			for _, p := range frontier {
				for _, nb := range n.neighbors[p] {
					res.Messages++ // every forwarded copy costs a message
					if !visited[nb] {
						visited[nb] = true
						next = append(next, nb)
					}
				}
			}
		}
		frontier = next
	}
	metFloodMessages.Add(uint64(res.Messages))
	metFloodVisited.Add(uint64(res.Visited))
	return res
}
