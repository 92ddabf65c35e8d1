package p2prange

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"

	"p2prange/internal/flight"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/query"
	"p2prange/internal/relation"
	"p2prange/internal/trace"
)

// node is one assembled peer as the public facades drive it. System
// wraps the origin it picks for each call, sharing its base relations
// and PadFrac across its nodes; a LivePeer keeps one node for its
// lifetime. Lookup, LookupTraced, Publish, Query and QueryTraced of both
// facades run here, and AddBase runs in bases.add. A node whose flight
// recorder is off — every simulated one — takes the nil-span fast path.
type node struct {
	*peer.Host
	schema  *relation.Schema
	base    *bases
	padFrac float64
}

// bases holds the base relations SQL falls back to: the paper's "go to
// the source".
type bases struct {
	mu   sync.RWMutex
	rels map[string]*relation.Relation
}

func newBases() *bases { return &bases{rels: make(map[string]*relation.Relation)} }

// get returns a registered base relation by name.
func (b *bases) get(name string) (*relation.Relation, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	r, ok := b.rels[name]
	return r, ok
}

// source returns the fallback source over the registered relations, or
// nil (approximate answers only) when there are none.
func (b *bases) source() query.Source {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.rels) == 0 {
		return nil
	}
	return query.NewRelationSource(maps.Clone(b.rels))
}

var errNoSchema = errors.New("p2prange: a Schema is required for SQL and relational data")

// compiledScheme builds a ring's shared LSH scheme from its key-material
// seed (default 1); k and l default to the paper's 20 and 5.
func compiledScheme(f Family, k, l int, seed int64) (*minhash.Scheme, error) {
	if k <= 0 {
		k = minhash.DefaultK
	}
	if l <= 0 {
		l = minhash.DefaultL
	}
	if seed == 0 {
		seed = 1
	}
	raw, err := minhash.NewScheme(f, k, l, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return raw.Compiled(), nil
}

// root opens a call's root span: a fresh trace when traced, else the
// flight recorder's always-sampled root, else nil — the untraced fast
// path, which formats no name. The recorder finishes either kind, so an
// explicit trace and a kept flight entry of one call render one tree.
func (n node) root(traced bool, name func() string) *Trace {
	switch {
	case traced:
		return trace.New(name())
	case n.Flight().On():
		return n.Flight().Start(name())
	}
	return nil
}

// lookup runs one lookup protocol attempt; traced returns its stitched
// span tree — probes, batches, grafted remote serve spans. The flight
// recorder keeps the tree only if the tail-based keep policy finds the
// outcome interesting. With the recorder off and no trace this is
// exactly peer.Lookup's nil-span fast path: zero extra allocations,
// zero extra RPCs.
func (n node) lookup(rel, attribute string, q Range, cache, traced bool) (Match, bool, *Trace, error) {
	sp := n.root(traced, func() string { return fmt.Sprintf("lookup %s.%s %s from %s", rel, attribute, q, n.Addr()) })
	lr, err := n.Lookup(rel, attribute, q, cache, sp)
	sp.End()
	n.Flight().Finish(flight.KindLookup, sp, sumHops(lr.Hops), err)
	if err != nil {
		return Match{}, false, sp, err
	}
	return lr.Match, lr.Found, sp, nil
}

// sumHops totals the per-probe chord path lengths for the hop-heavy
// keep policy.
func sumHops(hops []int) int {
	total := 0
	for _, h := range hops {
		total += h
	}
	return total
}

// publish stores a descriptor under its l identifiers, under the flight
// recorder; a descriptor with no holder is held by this node.
func (n node) publish(info PartitionInfo) error {
	if info.Holder == "" {
		info.Holder = n.Addr()
	}
	sp := n.root(false, func() string {
		return fmt.Sprintf("publish %s.%s %s from %s", info.Relation, info.Attribute, info.Range, n.Addr())
	})
	hops, err := n.Publish(info, sp)
	n.Flight().Finish(flight.KindPublish, sp, sumHops(hops), err)
	return err
}

// add registers a base relation of schema for SQL source fallback and
// partition materialization.
func (b *bases) add(schema *relation.Schema, r *relation.Relation) error {
	if schema == nil {
		return errNoSchema
	}
	if _, ok := schema.Relation(r.Schema.Name); !ok {
		return fmt.Errorf("p2prange: relation %q not in the global schema", r.Schema.Name)
	}
	// Index orderable columns so partition materialization at the data
	// source is O(log n + k) per fetch.
	for _, col := range r.Schema.Columns {
		if col.Type != relation.TString {
			if err := r.BuildIndex(col.Name); err != nil {
				return err
			}
		}
	}
	b.mu.Lock()
	b.rels[r.Schema.Name] = r
	b.mu.Unlock()
	return nil
}

// buildPlan parses and plans a restricted SQL SELECT against schema.
func buildPlan(schema *relation.Schema, sql string) (*query.Plan, error) {
	if schema == nil {
		return nil, errNoSchema
	}
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	return query.BuildPlan(q, schema)
}

// query parses, plans and executes a restricted SQL SELECT from this
// node: selection leaves resolve through the DHT, with base fallback
// when relations are registered; joins and projection run here. traced
// returns the span tree, including the serve spans of every remote peer
// that participated; otherwise the flight recorder, if on, records the
// run.
func (n node) query(sql string, traced bool) (*QueryResult, *Trace, error) {
	plan, err := buildPlan(n.schema, sql)
	if err != nil {
		return nil, nil, err
	}
	src := &peer.DataSource{Peer: n.Peer, Base: n.base.source(), PadFrac: n.padFrac}
	sp := n.root(traced, func() string { return "query from " + n.Addr() })
	res, err := query.ExecuteTraced(plan, n.schema, src, sp)
	sp.End()
	n.Flight().Finish(flight.KindQuery, sp, -1, err)
	return res, sp, err
}
