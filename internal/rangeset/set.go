package rangeset

import (
	"sort"
	"strings"
)

// Set is a union of disjoint, sorted, non-adjacent ranges. The zero value
// is the empty set. Sets support the multi-interval extension hooks
// (future work in the paper) and provide exact set algebra for property
// tests of the similarity measures.
type Set struct {
	rs []Range // invariant: sorted by Lo, disjoint, gaps of >= 1 between them
}

// NewSet builds a Set from arbitrary (possibly overlapping, unsorted)
// ranges, normalizing them into the canonical disjoint form.
func NewSet(ranges ...Range) Set {
	if len(ranges) == 0 {
		return Set{}
	}
	rs := make([]Range, 0, len(ranges))
	for _, r := range ranges {
		if r.Valid() {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	out := rs[:0]
	for _, r := range rs {
		// Merge overlapping or adjacent ranges. r.Lo > out[n-1].Hi in the
		// second test, so r.Lo-1 cannot wrap — unlike Hi+1, which does
		// when the previous range ends at math.MaxInt64.
		if n := len(out); n > 0 && (r.Lo <= out[n-1].Hi || r.Lo-1 == out[n-1].Hi) {
			if r.Hi > out[n-1].Hi {
				out[n-1].Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return Set{rs: append([]Range(nil), out...)}
}

// Ranges returns the canonical disjoint ranges in ascending order.
func (s Set) Ranges() []Range { return append([]Range(nil), s.rs...) }

// Empty reports whether the set holds no values.
func (s Set) Empty() bool { return len(s.rs) == 0 }

// Size returns the number of integers in the set.
func (s Set) Size() int64 {
	var n int64
	for _, r := range s.rs {
		n += r.Size()
	}
	return n
}

// Contains reports whether v is in the set.
func (s Set) Contains(v int64) bool {
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].Hi >= v })
	return i < len(s.rs) && s.rs[i].Contains(v)
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	return NewSet(append(s.Ranges(), t.rs...)...)
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	var out []Range
	i, j := 0, 0
	for i < len(s.rs) && j < len(t.rs) {
		if x, ok := s.rs[i].Intersect(t.rs[j]); ok {
			out = append(out, x)
		}
		if s.rs[i].Hi < t.rs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return NewSet(out...)
}

// Jaccard returns |s ∩ t| / |s ∪ t|, or 0 when both sets are empty.
func (s Set) Jaccard(t Set) float64 {
	inter := s.Intersect(t).Size()
	union := s.Size() + t.Size() - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Containment returns |s ∩ t| / |s|, treating s as the query set.
// It returns 0 for an empty query set.
func (s Set) Containment(t Set) float64 {
	if s.Size() == 0 {
		return 0
	}
	return float64(s.Intersect(t).Size()) / float64(s.Size())
}

// Iterate calls fn on every value in ascending order, stopping early if fn
// returns false.
func (s Set) Iterate(fn func(v int64) bool) {
	for _, r := range s.rs {
		for v := r.Lo; v <= r.Hi; v++ {
			if !fn(v) {
				return
			}
		}
	}
}

// String formats the set as a union of intervals.
func (s Set) String() string {
	if s.Empty() {
		return "∅"
	}
	parts := make([]string, len(s.rs))
	for i, r := range s.rs {
		parts[i] = r.String()
	}
	return strings.Join(parts, "∪")
}

// JaccardDistance returns 1 - Jaccard(a, b). The paper (via Charikar)
// relies on this being a metric; the property tests verify the triangle
// inequality on it, and its violation for containment distance.
func JaccardDistance(a, b Range) float64 { return 1 - a.Jaccard(b) }

// ContainmentDistance returns 1 - Containment(a, b). Included to let tests
// demonstrate it is NOT a metric (the reason no LSH family exists for it).
func ContainmentDistance(a, b Range) float64 { return 1 - a.Containment(b) }
