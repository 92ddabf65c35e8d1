package minhash

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"p2prange/internal/rangeset"
)

// ID is a 32-bit identifier in the DHT's identifier space.
type ID = uint32

// MinHash returns min{pi(v) : v in q}, iterating the value set of the
// range. The work is linear in the range size, which is exactly the cost
// the paper measures in Fig. 5. It is the reference MinHashRange is
// tested against; Signer, the production path, does not scan.
func MinHash(p Permutation, q rangeset.Range) ID {
	minv := uint32(math.MaxUint32)
	for v := q.Lo; v <= q.Hi; v++ {
		if h := p.Apply(uint32(uint64(v))); h < minv {
			minv = h
		}
	}
	return minv
}

// Group is one group g = {h1, ..., hk} of k permutations. Its identifier
// for a range is the XOR of the k min-hashes, following the pseudocode in
// Section 4 of the paper (identifier[l] ^= h[i](Q)), passed through a
// bijective avalanche mix. Two ranges with Jaccard similarity p agree on
// a group with probability p^k.
//
// The mix step is the consistent-hashing detail the paper leaves
// implicit: min-hashes are minima, so they concentrate near the bottom of
// the 32-bit space (E[min of n uniform draws] ≈ 2^32/n), and the XOR of k
// of them inherits that bias — without mixing, every bucket lands on a
// tiny arc of the ring and a handful of peers absorb the entire load,
// destroying the Fig. 11 balance the paper reports. Because the mix is a
// bijection, bucket contents (and therefore all match-quality behavior)
// are unchanged; only ring placement spreads out.
type Group struct {
	perms []Permutation
}

// mix32 is the 32-bit murmur3 finalizer: a bijective avalanche function.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// NewGroup draws k permutations of family f from rng.
func NewGroup(f Family, k int, rng *rand.Rand) (*Group, error) {
	if k <= 0 {
		return nil, fmt.Errorf("minhash: group size k must be positive, got %d", k)
	}
	perms := make([]Permutation, k)
	for i := range perms {
		p, err := NewPermutation(f, rng)
		if err != nil {
			return nil, err
		}
		perms[i] = p
	}
	return &Group{perms: perms}, nil
}

// K returns the number of permutations in the group.
func (g *Group) K() int { return len(g.perms) }

// Identifier computes the group's 32-bit identifier for q.
func (g *Group) Identifier(q rangeset.Range) ID {
	var id ID
	for _, p := range g.perms {
		id ^= MinHash(p, q)
	}
	return mix32(id)
}

// Scheme is the paper's full hashing scheme: l groups of k permutations.
// A range is stored under (up to) l identifiers; a lookup probes the same
// l identifiers. With pairwise Jaccard similarity p, at least one group
// collides with probability 1 - (1 - p^k)^l. The paper uses k=20, l=5,
// which approximates a step function with its step at similarity 0.9.
type Scheme struct {
	family Family
	groups []*Group

	// compileOnce/compiled cache the byte-table form so Compiled() is
	// idempotent and allocation-free after the first call (see compile.go).
	compileOnce sync.Once
	compiled    *Scheme
}

// Default scheme parameters from the paper (Sec. 5.1).
const (
	DefaultK = 20
	DefaultL = 5
)

// NewScheme builds a scheme of l groups of k permutations of family f,
// drawing all key material from rng (deterministic for a seeded rng).
func NewScheme(f Family, k, l int, rng *rand.Rand) (*Scheme, error) {
	if l <= 0 {
		return nil, fmt.Errorf("minhash: group count l must be positive, got %d", l)
	}
	groups := make([]*Group, l)
	for i := range groups {
		g, err := NewGroup(f, k, rng)
		if err != nil {
			return nil, err
		}
		groups[i] = g
	}
	return &Scheme{family: f, groups: groups}, nil
}

// NewDefaultScheme builds the paper's k=20, l=5 scheme.
func NewDefaultScheme(f Family, rng *rand.Rand) (*Scheme, error) {
	return NewScheme(f, DefaultK, DefaultL, rng)
}

// Family returns the permutation family the scheme draws from.
func (s *Scheme) Family() Family { return s.family }

// K returns the group size.
func (s *Scheme) K() int { return s.groups[0].K() }

// L returns the number of groups.
func (s *Scheme) L() int { return len(s.groups) }

// Identifiers computes the l identifiers of q, one per group.
func (s *Scheme) Identifiers(q rangeset.Range) []ID {
	ids := make([]ID, len(s.groups))
	for i, g := range s.groups {
		ids[i] = g.Identifier(q)
	}
	return ids
}

// CollideProbability returns the theoretical probability 1 - (1 - p^k)^l
// that two ranges with Jaccard similarity p agree on at least one group.
func CollideProbability(p float64, k, l int) float64 {
	return 1 - math.Pow(1-math.Pow(p, float64(k)), float64(l))
}
