package relation

import (
	"fmt"
	"sort"

	"p2prange/internal/rangeset"
)

// BuildIndex builds (or rebuilds) a sorted index over the attribute's
// ordinals, making SelectRange on that attribute O(log n + k) instead of
// a full scan. Data-source peers that serve many partition
// materializations benefit most. Inserts invalidate all indexes.
func (r *Relation) BuildIndex(attribute string) error {
	ci, ok := r.Schema.ColIndex(attribute)
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoColumn, r.Schema.Name, attribute)
	}
	idx := make([]int, len(r.Tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.Tuples[idx[a]][ci].Ordinal() < r.Tuples[idx[b]][ci].Ordinal()
	})
	if r.indexes == nil {
		r.indexes = make(map[string][]int)
	}
	r.indexes[attribute] = idx
	return nil
}

// Indexed reports whether the attribute currently has a valid index.
func (r *Relation) Indexed(attribute string) bool {
	_, ok := r.sortedIndex(attribute)
	return ok
}

// sortedIndex returns the attribute's sorted index, unless there is none
// or it no longer covers the tuples (they were replaced, not inserted).
func (r *Relation) sortedIndex(attribute string) ([]int, bool) {
	idx, ok := r.indexes[attribute]
	return idx, ok && len(idx) == len(r.Tuples)
}

// selectViaIndex gathers the tuples in rg using the sorted index idx
// over column ci.
func (r *Relation) selectViaIndex(idx []int, ci int, rg rangeset.Range) *Relation {
	lo := sort.Search(len(idx), func(i int) bool {
		return r.Tuples[idx[i]][ci].Ordinal() >= rg.Lo
	})
	hi := lo + sort.Search(len(idx)-lo, func(i int) bool {
		return r.Tuples[idx[lo+i]][ci].Ordinal() > rg.Hi
	})
	out := NewRelation(r.Schema)
	if hi > lo {
		out.Tuples = make([]Tuple, hi-lo)
		for i := range out.Tuples {
			out.Tuples[i] = r.Tuples[idx[lo+i]]
		}
	}
	return out
}
