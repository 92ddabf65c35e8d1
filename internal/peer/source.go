package peer

import (
	"fmt"
	"math"

	"p2prange/internal/metrics"
	"p2prange/internal/query"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/store"
	"p2prange/internal/trace"
)

// metFallbacks counts leaf fetches that went to the base source because
// the DHT answer was absent or covered the range only partially (Default
// registry).
var metFallbacks = metrics.Default.Counter("peer.fallbacks")

// DataSource adapts a Peer to the query executor's Source interface,
// implementing the paper's end-to-end flow for a selection leaf:
//
//  1. hash the (optionally padded) range and locate the best cached
//     partition through the DHT,
//  2. fetch its tuples from the holder peer,
//  3. if the match covers the query only partially (or not at all) and a
//     base source is configured, fall back to the source relation — "if
//     the user is not satisfied with the answer, they have a choice to go
//     to the source" — and cache the freshly computed partition: the data
//     materializes at this peer and the descriptor is published under its
//     l identifiers.
type DataSource struct {
	// Peer performs lookups and holds newly cached partitions.
	Peer *Peer
	// Base is the fallback source (typically query.RelationSource at the
	// data-source peer); nil means approximate answers only.
	Base query.Source
	// PadFrac expands query ranges before hashing (Fig. 10's padding);
	// zero disables padding. Padding and the clamping of half-open ranges
	// take the attribute's domain from Base.
	PadFrac float64
}

var _ query.Source = (*DataSource)(nil)

// Fetch implements query.Source, recording the probe range, the DHT
// lookup (as a child span), the data fetch from the holder, and any
// base-source fallback on sp. A half-open request is resolved over its
// clamp to the attribute's domain; the covered range it reports reaches
// the open end again wherever the answer reaches the domain's edge, since
// no value lies beyond it.
func (s *DataSource) Fetch(rel, attribute string, req rangeset.Range, sp *trace.Span) (*relation.Relation, rangeset.Range, error) {
	rg := s.clamp(rel, attribute, req)
	probe := rg
	if s.PadFrac > 0 {
		dom := s.domain(rel, attribute, rg)
		probe = rg.Pad(s.PadFrac, dom.Lo, dom.Hi)
		if sp.On() && probe != rg {
			sp.Eventf("pad", "%s -> %s", rg, probe)
		}
	}
	var ls *trace.Span
	if sp.On() {
		ls = sp.Childf("lookup %s.%s %s", rel, attribute, probe)
	}
	// The lookup caches nothing: a descriptor names this peer as the
	// probe range's holder, and only the fallback below materializes that
	// partition here. A covering hit leaves no data of the probe range at
	// this peer, so publishing it would advertise what it cannot serve.
	lr, err := s.Peer.Lookup(rel, attribute, probe, false, ls)
	ls.End()
	if err != nil {
		return nil, rangeset.Range{}, err
	}
	var data *relation.Relation
	covered := rangeset.Range{Lo: 0, Hi: -1} // empty
	if lr.Found {
		if inter, ok := rg.Intersect(lr.Match.Partition.Range); ok {
			d, err := s.Peer.FetchData(lr.Match, sp)
			if err == nil {
				if sp.On() {
					sp.Eventf("fetch", "%d tuple(s) from %s", len(d.Tuples), lr.Match.Partition.Holder)
				}
				d, err = within(d, attribute, lr.Match.Partition.Range, req)
			}
			if err == nil {
				data, covered = d, inter
			} else if s.Base == nil {
				return nil, rangeset.Range{}, err
			}
		}
	}
	recall := 0.0
	if covered.Valid() {
		recall = rg.Recall(covered)
	}
	if recall >= 1 || s.Base == nil {
		if sp.On() {
			sp.Eventf("answer", "recall=%.3f from cache", recall)
		}
		if data == nil {
			// No match at all and no fallback: an empty, zero-coverage
			// answer (the schema may be unknown without a base; synthesize
			// from the peer's schema).
			rs, ok := s.schemaFor(rel)
			if !ok {
				return nil, rangeset.Range{}, fmt.Errorf("peer: no match and no base source for %s", rel)
			}
			return relation.NewRelation(rs), covered, nil
		}
		if covered.Lo == rg.Lo {
			covered.Lo = req.Lo
		}
		if covered.Hi == rg.Hi {
			covered.Hi = req.Hi
		}
		return data, covered, nil
	}
	// Fall back to the source relation, then cache the computed partition
	// so the system benefits next time: materialize here, publish the
	// descriptor under the probe range actually evaluated.
	metFallbacks.Inc()
	if sp.On() {
		sp.Eventf("fallback", "recall=%.3f < 1.000, going to source", recall)
	}
	full, fullCovered, err := s.Base.Fetch(rel, attribute, probe, sp)
	if err != nil {
		return nil, rangeset.Range{}, err
	}
	part := &relation.Partition{Relation: rel, Attribute: attribute, Range: fullCovered, Data: full}
	s.Peer.AddPartition(part)
	if _, err := s.Peer.Publish(storeDescriptor(part, s.Peer.Addr()), sp); err != nil {
		return nil, rangeset.Range{}, err
	}
	// The executor gets its own header over the tuples, so a join index
	// it keeps on them does not stay with the cached partition.
	data, err = within(&relation.Relation{Schema: full.Schema, Tuples: full.Tuples}, attribute, probe, req)
	if err != nil {
		return nil, rangeset.Range{}, err
	}
	return data, req, nil
}

// within returns the tuples of data, a partition of range of, that lie
// inside req, as query.Source requires: data itself when of lies inside
// req, else a filtered copy. A holder's partition reaches beyond the
// request when it is a covering superset, and a base fetch does when the
// probe was padded.
func within(data *relation.Relation, attribute string, of, req rangeset.Range) (*relation.Relation, error) {
	if req.ContainsRange(of) {
		return data, nil
	}
	return data.SelectRange(attribute, req)
}

// FetchAll implements query.Source; full scans always go to the base.
func (s *DataSource) FetchAll(rel string) (*relation.Relation, error) {
	if s.Base == nil {
		return nil, fmt.Errorf("peer: full scan of %s requires a base source", rel)
	}
	return s.Base.FetchAll(rel)
}

func (s *DataSource) clamp(rel, attribute string, rg rangeset.Range) rangeset.Range {
	if rg.Lo != math.MinInt64 && rg.Hi != math.MaxInt64 {
		return rg
	}
	dom := s.domain(rel, attribute, rg)
	if rg.Lo == math.MinInt64 {
		rg.Lo = dom.Lo
	}
	if rg.Hi == math.MaxInt64 {
		rg.Hi = dom.Hi
	}
	if rg.Hi < rg.Lo {
		rg.Hi = rg.Lo
	}
	return rg
}

// domain returns the attribute domain used for clamping and padding: the
// base relation's, or fallback without one.
func (s *DataSource) domain(rel, attribute string, fallback rangeset.Range) rangeset.Range {
	if s.Base != nil {
		if full, err := s.Base.FetchAll(rel); err == nil {
			if d, err := full.AttributeRange(attribute); err == nil {
				return d
			}
		}
	}
	return fallback
}

func (s *DataSource) schemaFor(rel string) (*relation.RelationSchema, bool) {
	if s.Peer.cfg.Schema == nil {
		return nil, false
	}
	return s.Peer.cfg.Schema.Relation(rel)
}

// storeDescriptor converts a materialized partition to its DHT descriptor.
func storeDescriptor(p *relation.Partition, holder string) store.Partition {
	return store.Partition{
		Relation:  p.Relation,
		Attribute: p.Attribute,
		Range:     p.Range,
		Holder:    holder,
	}
}
