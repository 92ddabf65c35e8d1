// Package p2prange is a peer-to-peer data sharing system that answers
// approximate range selection queries, reproducing "Approximate Range
// Selection Queries in Peer-to-Peer Systems" (Gupta, Agrawal, El Abbadi,
// CIDR 2003).
//
// Peers cache horizontal partitions of shared relations — the tuples
// selected by a range predicate on one attribute. A querying peer hashes
// its selection range with locality sensitive hashing (min-wise
// independent permutations) into l identifiers on a Chord ring, asks the
// peers owning those identifiers for their most similar cached partition,
// and answers the query from the best match (optionally falling back to
// the data source and caching the result for future queries).
//
// The package is a facade over the building blocks in internal/: exported
// aliases give external users direct access to the range, schema, and
// match types, while System wires peers, transport, hashing, and the
// relational layer together. Use New for an in-process (simulated)
// system, and StartPeer/Connect (live.go) for real TCP deployments.
package p2prange

import (
	"errors"
	"fmt"
	"math/rand"

	"p2prange/internal/chord"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/query"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/sim"
	"p2prange/internal/store"
	"p2prange/internal/trace"
)

// Re-exported building blocks. Aliases (not wrappers) so values flow
// freely between the facade and the internal packages.
type (
	// Range is a closed integer interval [Lo, Hi], the value set of a
	// range predicate.
	Range = rangeset.Range
	// Match is a scored cached-partition candidate.
	Match = store.Match
	// PartitionInfo describes one cached partition (descriptor only).
	PartitionInfo = store.Partition
	// Measure selects the bucket-level match measure.
	Measure = store.Measure
	// Family identifies a hash-function family.
	Family = minhash.Family
	// Schema is the global relational schema.
	Schema = relation.Schema
	// Relation is a materialized set of tuples.
	Relation = relation.Relation
	// RelationSchema describes one relation.
	RelationSchema = relation.RelationSchema
	// Column is one attribute of a relation schema.
	Column = relation.Column
	// Tuple is one row.
	Tuple = relation.Tuple
	// Value is one typed cell.
	Value = relation.Value
	// QueryResult is the output of a SQL execution.
	QueryResult = query.Result
	// Trace is a per-query span tree: LookupTraced and QueryTraced return
	// one recording every hop, retry, detour, and cache outcome; render it
	// with Tree. See docs/OBSERVABILITY.md.
	Trace = trace.Span
)

// Hash-function families (paper Sec. 3.3 and 5.1).
const (
	// MinWise is the full min-wise independent bit permutation.
	MinWise = minhash.MinWise
	// ApproxMinWise is its cheap first-iteration approximation.
	ApproxMinWise = minhash.ApproxMinWise
	// Linear is pi(x) = a*x + b mod p.
	Linear = minhash.Linear
)

// Bucket match measures (paper Sec. 5.2).
const (
	// MatchJaccard scores candidates by Jaccard similarity.
	MatchJaccard = store.MatchJaccard
	// MatchContainment scores candidates by query containment.
	MatchContainment = store.MatchContainment
)

// NewRange builds a validated range.
func NewRange(lo, hi int64) (Range, error) { return rangeset.New(lo, hi) }

// Config assembles a System.
type Config struct {
	// Peers is the number of simulated peers (default 32).
	Peers int
	// Family selects the hash family (default ApproxMinWise, the paper's
	// recommended trade-off).
	Family Family
	// K and L are the LSH scheme parameters (default 20 and 5).
	K, L int
	// Measure is the bucket match measure. The zero value is
	// MatchJaccard, the measure the hash family is built on; pass
	// MatchContainment for the better recall Fig. 9 reports.
	Measure Measure
	// PadFrac expands query ranges before hashing (Fig. 10; default 0).
	PadFrac float64
	// Seed drives all randomness (default 1).
	Seed int64
	// Schema is required for SQL execution; optional for raw range use.
	Schema *Schema
	// Replicas pushes each stored descriptor to that many ring successors
	// so peer crashes do not lose cached descriptors. Setting it enables
	// the replica subsystem (versioned copies, anti-entropy repair,
	// hot-bucket promotion; see internal/replica).
	Replicas int
	// LoadAware routes each bucket probe to the least-loaded live replica
	// instead of always the owner. It needs Replicas > 0: New refuses it
	// without.
	LoadAware bool
	// SigCache bounds each peer's signature cache: the identifiers of
	// recently hashed ranges, so a repeated range skips rehashing. 0
	// disables the cache.
	SigCache int
}

func (c Config) withDefaults() Config {
	if c.Peers <= 0 {
		c.Peers = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// System is an in-process deployment: N peers over the in-memory
// transport on a converged chord ring, sharing one LSH scheme. Its peers
// are assembled like live ones (peer.Host) and run the same facade
// methods; System only picks a random origin per call and keeps the base
// relations and PadFrac its peers share.
type System struct {
	cfg     Config
	cluster *sim.Cluster
	rng     *rand.Rand
	base    *bases
}

// New builds a simulated system.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	scheme, err := compiledScheme(cfg.Family, cfg.K, cfg.L, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cluster, err := sim.NewCluster(sim.ClusterConfig{
		N: cfg.Peers,
		Peer: peer.Config{
			Scheme:    scheme,
			Measure:   cfg.Measure,
			Schema:    cfg.Schema,
			Replicas:  cfg.Replicas,
			LoadAware: cfg.LoadAware,
			SigCache:  cfg.SigCache,
		},
	})
	if err != nil {
		return nil, err
	}
	return &System{
		cfg:     cfg,
		cluster: cluster,
		rng:     rand.New(rand.NewSource(cfg.Seed + 0x9e3779b9)),
		base:    newBases(),
	}, nil
}

// origin picks a uniformly random querying peer.
func (s *System) origin() node {
	return node{Host: s.cluster.RandomPeer(s.rng), schema: s.cfg.Schema, base: s.base, padFrac: s.cfg.PadFrac}
}

// Peers returns the number of peers.
func (s *System) Peers() int { return s.cluster.N() }

// Lookup runs the paper's approximate range lookup for relation.attribute
// from a random querying peer. When cache is true (the paper's protocol)
// a non-exact query range is recorded at the l identifier owners so later
// similar queries can find it.
func (s *System) Lookup(rel, attribute string, q Range, cache bool) (Match, bool, error) {
	if !q.Valid() {
		return Match{}, false, fmt.Errorf("p2prange: invalid range %s", q)
	}
	m, found, _, err := s.origin().lookup(rel, attribute, q, cache, false)
	return m, found, err
}

// LookupTraced is Lookup returning a span tree of the whole protocol run:
// the signature-cache outcome, one child span per probe with its chord
// hops and detours, one per batch round trip with the owner's serve span
// and the per-probe matches, and the store decision.
func (s *System) LookupTraced(rel, attribute string, q Range, cache bool) (Match, bool, *Trace, error) {
	if !q.Valid() {
		return Match{}, false, nil, fmt.Errorf("p2prange: invalid range %s", q)
	}
	return s.origin().lookup(rel, attribute, q, cache, true)
}

// Publish registers a partition descriptor from a random origin peer,
// which holds it when info.Holder is empty.
func (s *System) Publish(info PartitionInfo) error { return s.origin().publish(info) }

// AddBase registers a base relation at the system's data source, enabling
// SQL execution with source fallback and partition materialization.
func (s *System) AddBase(r *Relation) error { return s.base.add(s.cfg.Schema, r) }

// Base returns a registered base relation by name.
func (s *System) Base(rel string) (*Relation, bool) { return s.base.get(rel) }

// Query parses, plans, and executes a restricted SQL SELECT: selects are
// pushed to the leaves and resolved through the DHT (with base fallback
// and caching); joins and projection run at the querying peer.
func (s *System) Query(sql string) (*QueryResult, error) {
	res, _, err := s.origin().query(sql, false)
	return res, err
}

// QueryTraced is Query returning a span tree of the execution: one child
// span per scan leaf (with the DHT lookup, its probes, and their chord
// hops inside) plus the join/projection stage.
func (s *System) QueryTraced(sql string) (*QueryResult, *Trace, error) {
	return s.origin().query(sql, true)
}

// Plan returns the physical plan for a SQL statement without executing
// it, for inspection (the paper's Fig. 1 plan shape).
func (s *System) Plan(sql string) (string, error) {
	p, err := buildPlan(s.cfg.Schema, sql)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// Loads returns the stored-descriptor count per peer (Fig. 11's metric).
func (s *System) Loads() []int { return s.cluster.Loads() }

// Grow adds one peer through the real join protocol (bootstrap, ring
// stabilization, arc reclamation) and returns the new ring size.
func (s *System) Grow() (int, error) {
	_, err := s.cluster.Join()
	return s.cluster.N(), err
}

// Shrink removes a random peer gracefully: its buckets hand off to the
// successor before it departs. Returns the new ring size.
func (s *System) Shrink() (int, error) {
	if s.cluster.N() <= 1 {
		return s.cluster.N(), errors.New("p2prange: cannot shrink below one peer")
	}
	err := s.cluster.Leave(s.rng.Intn(s.cluster.N()))
	return s.cluster.N(), err
}

// CrashOne fails a random peer abruptly — no handoff, no notification —
// and lets the stabilization protocol repair the ring. Descriptors stored
// at the crashed peer are lost (they re-cache on future misses). Returns
// the new ring size.
func (s *System) CrashOne() (int, error) {
	if s.cluster.N() <= 1 {
		return s.cluster.N(), errors.New("p2prange: cannot crash the last peer")
	}
	err := s.cluster.Crash(s.rng.Intn(s.cluster.N()))
	return s.cluster.N(), err
}

// Ring returns the peers' chord references in ring order, for inspection.
func (s *System) Ring() []chord.Ref {
	refs := make([]chord.Ref, 0, s.cluster.N())
	for _, p := range s.cluster.Peers {
		refs = append(refs, p.Ref())
	}
	return refs
}
