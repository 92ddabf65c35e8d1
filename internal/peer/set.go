package peer

import (
	"p2prange/internal/rangeset"
)

// SetLookupResult is the outcome of a multi-interval lookup: one ordinary
// lookup per component range plus set-level recall accounting.
type SetLookupResult struct {
	// Components holds the per-component results, in the canonical order
	// of the set's disjoint ranges.
	Components []LookupResult
	// Covered is the part of the query set covered by the union of all
	// matched partitions.
	Covered rangeset.Set
	// Recall is |Covered| / |query set|.
	Recall float64
}

// LookupSet answers a multi-interval range predicate (e.g. the union of
// two disjoint ranges from an IN/OR condition) by running the Section 4
// protocol once per component range and composing the answers. This is
// the practical form of the paper's multi-interval future work: cached
// partitions are single ranges, so each component probes and caches
// under its own identifiers, and the caller learns how much of the whole
// set the cache covered.
func (p *Peer) LookupSet(rel, attribute string, qs rangeset.Set, cache bool) (SetLookupResult, error) {
	var res SetLookupResult
	if qs.Empty() {
		res.Recall = 1 // nothing requested, everything answered
		return res, nil
	}
	var covered []rangeset.Range
	for _, q := range qs.Ranges() {
		lr, err := p.Lookup(rel, attribute, q, cache, nil)
		if err != nil {
			return res, err
		}
		res.Components = append(res.Components, lr)
		if lr.Found {
			if inter, ok := q.Intersect(lr.Match.Partition.Range); ok {
				covered = append(covered, inter)
			}
		}
	}
	res.Covered = rangeset.NewSet(covered...)
	res.Recall = qs.Containment(res.Covered)
	return res, nil
}
