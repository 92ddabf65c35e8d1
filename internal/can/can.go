package can

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"p2prange/internal/metrics"
)

// The Default-registry can.* family, the CAN-side counterpart of
// chord.hops for the substrate-comparison experiment.
var (
	metCANLookups = metrics.Default.Counter("can.lookups")
	metCANHops    = metrics.Default.IntHistogram("can.hops")
)

// Zone is a half-open box [Lo[i], Hi[i]) per dimension of the unit torus.
type Zone struct {
	Lo, Hi []float64
}

// Contains reports whether point p lies in the zone.
func (z Zone) Contains(p []float64) bool {
	for i := range p {
		if p[i] < z.Lo[i] || p[i] >= z.Hi[i] {
			return false
		}
	}
	return true
}

// Volume returns the zone's volume; load balance follows volume since
// keys hash uniformly.
func (z Zone) Volume() float64 {
	v := 1.0
	for i := range z.Lo {
		v *= z.Hi[i] - z.Lo[i]
	}
	return v
}

// String formats the zone.
func (z Zone) String() string {
	s := ""
	for i := range z.Lo {
		if i > 0 {
			s += "×"
		}
		s += fmt.Sprintf("[%.3f,%.3f)", z.Lo[i], z.Hi[i])
	}
	return s
}

// Node is one CAN participant.
type Node struct {
	ID        int
	zone      Zone
	neighbors []*Node
	splits    int // how many times this zone has been split (round-robin axis)
}

// Zone returns the node's zone.
func (n *Node) Zone() Zone { return n.zone }

// Neighbors returns the node's neighbor list (shared; do not modify).
func (n *Node) Neighbors() []*Node { return n.neighbors }

// Network is a fully built CAN over n nodes.
type Network struct {
	d     int
	nodes []*Node
}

// New builds a CAN of n nodes in d dimensions by the standard join
// process: each joiner picks a random point, the owner's zone splits in
// half along the round-robin axis, and the joiner takes one half.
// Adjacency is computed once after construction (the simulation analogue
// of CAN's neighbor-update protocol).
func New(d, n int, seed int64) (*Network, error) {
	if d < 1 || d > 8 {
		return nil, fmt.Errorf("can: dimension %d out of range [1,8]", d)
	}
	if n < 1 {
		return nil, fmt.Errorf("can: need at least one node, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	first := &Node{ID: 0, zone: unitZone(d)}
	net := &Network{d: d, nodes: []*Node{first}}
	for i := 1; i < n; i++ {
		p := randPoint(rng, d)
		owner := net.bruteOwner(p)
		newNode := &Node{ID: i}
		splitZone(owner, newNode)
		net.nodes = append(net.nodes, newNode)
	}
	net.buildAdjacency()
	return net, nil
}

func unitZone(d int) Zone {
	z := Zone{Lo: make([]float64, d), Hi: make([]float64, d)}
	for i := range z.Hi {
		z.Hi[i] = 1
	}
	return z
}

func randPoint(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// splitZone halves owner's zone along its round-robin axis; the new node
// takes the upper half.
func splitZone(owner, joiner *Node) {
	axis := owner.splits % len(owner.zone.Lo)
	mid := (owner.zone.Lo[axis] + owner.zone.Hi[axis]) / 2
	joiner.zone = Zone{
		Lo: append([]float64(nil), owner.zone.Lo...),
		Hi: append([]float64(nil), owner.zone.Hi...),
	}
	joiner.zone.Lo[axis] = mid
	owner.zone.Hi[axis] = mid
	owner.splits++
	joiner.splits = owner.splits
}

// bruteOwner locates the owner of p by scanning zones (used only during
// construction and as the test oracle).
func (net *Network) bruteOwner(p []float64) *Node {
	for _, n := range net.nodes {
		if n.zone.Contains(p) {
			return n
		}
	}
	// Zones tile the space, so this is unreachable for valid points.
	panic(fmt.Sprintf("can: point %v owned by nobody", p))
}

// buildAdjacency links every pair of zones that abut: overlapping extents
// in d-1 dimensions and touching (possibly across the torus wrap) in the
// remaining one.
func (net *Network) buildAdjacency() {
	for _, n := range net.nodes {
		n.neighbors = n.neighbors[:0]
	}
	for i, a := range net.nodes {
		for _, b := range net.nodes[i+1:] {
			if zonesAdjacent(a.zone, b.zone) {
				a.neighbors = append(a.neighbors, b)
				b.neighbors = append(b.neighbors, a)
			}
		}
	}
}

// zonesAdjacent reports whether two zones share a (d-1)-dimensional face,
// accounting for wraparound on the unit torus.
func zonesAdjacent(a, b Zone) bool {
	touchDims := 0
	for i := range a.Lo {
		overlap := a.Lo[i] < b.Hi[i] && b.Lo[i] < a.Hi[i]
		if overlap {
			continue
		}
		touch := a.Hi[i] == b.Lo[i] || b.Hi[i] == a.Lo[i] ||
			(a.Lo[i] == 0 && b.Hi[i] == 1) || (b.Lo[i] == 0 && a.Hi[i] == 1)
		if !touch {
			return false
		}
		touchDims++
		if touchDims > 1 {
			return false
		}
	}
	return touchDims == 1
}

// N returns the node count.
func (net *Network) N() int { return len(net.nodes) }

// D returns the dimensionality.
func (net *Network) D() int { return net.d }

// Nodes returns the nodes (shared; do not modify).
func (net *Network) Nodes() []*Node { return net.nodes }

// KeyToPoint hashes a 32-bit identifier to a point: each coordinate is a
// salted SHA-1 of the key, so the same identifier space used on the chord
// ring maps into the CAN torus.
func KeyToPoint(key uint32, d int) []float64 {
	p := make([]float64, d)
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[0:4], key)
	for i := 0; i < d; i++ {
		binary.BigEndian.PutUint32(buf[4:8], uint32(i))
		sum := sha1.Sum(buf[:])
		p[i] = float64(binary.BigEndian.Uint64(sum[:8])>>11) / (1 << 53)
	}
	return p
}

// torusDist1 is the wraparound distance between coordinates.
func torusDist1(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 0.5 {
		d = 1 - d
	}
	return d
}

// distToZone returns the torus distance from point p to zone z (zero if
// inside).
func distToZone(p []float64, z Zone) float64 {
	var sum float64
	for i := range p {
		if p[i] >= z.Lo[i] && p[i] < z.Hi[i] {
			continue
		}
		d := math.Min(torusDist1(p[i], z.Lo[i]), torusDist1(p[i], z.Hi[i]))
		sum += d * d
	}
	return sum
}

// Route forwards greedily from the origin node toward the owner of point
// p, returning the owner and the hop count. Each step moves to the
// neighbor whose zone is closest to p; zones tile the torus, so progress
// is guaranteed and the hop count is bounded by the node count.
func (net *Network) Route(from *Node, p []float64) (*Node, int, error) {
	metCANLookups.Inc()
	cur := from
	hops := 0
	for !cur.zone.Contains(p) {
		var best *Node
		bestDist := math.Inf(1)
		for _, nb := range cur.neighbors {
			if d := distToZone(p, nb.zone); d < bestDist {
				best, bestDist = nb, d
			}
		}
		if best == nil {
			return nil, hops, fmt.Errorf("can: node %d has no neighbors toward %v", cur.ID, p)
		}
		cur = best
		hops++
		if hops > len(net.nodes) {
			return nil, hops, fmt.Errorf("can: routing loop toward %v", p)
		}
	}
	metCANHops.Observe(uint64(hops))
	return cur, hops, nil
}

// Lookup routes from a node to the owner of a 32-bit identifier.
func (net *Network) Lookup(from *Node, key uint32) (*Node, int, error) {
	return net.Route(from, KeyToPoint(key, net.d))
}

// Volumes returns every node's zone volume (the load-balance metric).
func (net *Network) Volumes() []float64 {
	out := make([]float64, len(net.nodes))
	for i, n := range net.nodes {
		out[i] = n.zone.Volume()
	}
	return out
}
