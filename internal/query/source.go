package query

import (
	"fmt"
	"math"

	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/trace"
)

// RelationSource is a Source backed by fully materialized relations — the
// "data source peer" of the paper, or a purely local execution. It always
// covers the requested range exactly.
type RelationSource struct {
	Rels map[string]*relation.Relation
}

// NewRelationSource wraps a set of base relations.
func NewRelationSource(rels map[string]*relation.Relation) *RelationSource {
	return &RelationSource{Rels: rels}
}

// Fetch implements Source by selecting the request's clamp to the
// domain from the base relation; a local selection has nothing to trace,
// so sp is ignored.
func (s *RelationSource) Fetch(rel, attribute string, rg rangeset.Range, _ *trace.Span) (*relation.Relation, rangeset.Range, error) {
	r, ok := s.Rels[rel]
	if !ok {
		return nil, rangeset.Range{}, fmt.Errorf("%w: %s", ErrNoSource, rel)
	}
	clamped := ClampToDomain(r, attribute, rg)
	if !rg.ContainsRange(clamped) {
		// The request misses the domain, and its clamp is the one domain
		// value next to it: no tuple lies inside the request.
		return relation.NewRelation(r.Schema), clamped, nil
	}
	data, err := r.SelectRange(attribute, clamped)
	if err != nil {
		return nil, rangeset.Range{}, err
	}
	return data, clamped, nil
}

// FetchAll implements Source.
func (s *RelationSource) FetchAll(rel string) (*relation.Relation, error) {
	r, ok := s.Rels[rel]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSource, rel)
	}
	return r, nil
}

// ClampToDomain narrows half-open plan ranges (MinInt64/MaxInt64
// endpoints) to the attribute's observed domain so they can be hashed and
// selected. Fully bounded ranges pass through unchanged.
func ClampToDomain(r *relation.Relation, attribute string, rg rangeset.Range) rangeset.Range {
	if rg.Lo != math.MinInt64 && rg.Hi != math.MaxInt64 {
		return rg
	}
	dom, err := r.AttributeRange(attribute)
	if err != nil {
		return rg
	}
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
