package rangeset

import (
	"errors"
	"fmt"
)

// ErrEmpty is returned by constructors when hi < lo would produce an empty
// range, which the hashing layer cannot represent.
var ErrEmpty = errors.New("rangeset: empty range (hi < lo)")

// Range is a closed interval [Lo, Hi] of integers. It models the set of
// attribute values selected by a range predicate, e.g. 30 <= age <= 50 is
// Range{30, 50} with the value set {30, 31, ..., 50}.
type Range struct {
	Lo, Hi int64
}

// New returns the range [lo, hi]. It returns ErrEmpty if hi < lo.
func New(lo, hi int64) (Range, error) {
	if hi < lo {
		return Range{}, fmt.Errorf("%w: [%d,%d]", ErrEmpty, lo, hi)
	}
	return Range{Lo: lo, Hi: hi}, nil
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(lo, hi int64) Range {
	r, err := New(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// Size returns the number of integers in the range.
func (r Range) Size() int64 { return r.Hi - r.Lo + 1 }

// Valid reports whether the range is non-empty.
func (r Range) Valid() bool { return r.Hi >= r.Lo }

// Contains reports whether v lies in the range.
func (r Range) Contains(v int64) bool { return r.Lo <= v && v <= r.Hi }

// ContainsRange reports whether other is entirely inside r.
func (r Range) ContainsRange(other Range) bool {
	return r.Lo <= other.Lo && other.Hi <= r.Hi
}

// Intersect returns the intersection and whether it is non-empty.
func (r Range) Intersect(other Range) (Range, bool) {
	lo, hi := max64(r.Lo, other.Lo), min64(r.Hi, other.Hi)
	if hi < lo {
		return Range{}, false
	}
	return Range{lo, hi}, true
}

// IntersectSize returns |r ∩ other|.
func (r Range) IntersectSize(other Range) int64 {
	if x, ok := r.Intersect(other); ok {
		return x.Size()
	}
	return 0
}

// UnionSize returns |r ∪ other| (the ranges need not overlap).
func (r Range) UnionSize(other Range) int64 {
	return r.Size() + other.Size() - r.IntersectSize(other)
}

// Jaccard returns the Jaccard set similarity |r ∩ other| / |r ∪ other|.
// It is 1 for identical ranges and 0 for disjoint ones. The corresponding
// distance 1 - Jaccard satisfies the triangle inequality, which is why the
// paper's locality sensitive hash family exists for this measure.
func (r Range) Jaccard(other Range) float64 {
	inter := r.IntersectSize(other)
	if inter == 0 {
		return 0
	}
	return float64(inter) / float64(r.UnionSize(other))
}

// Containment returns |q ∩ r| / |q| where q is the receiver (the query
// range) and r the candidate. It measures how much of the query the
// candidate can answer; it does not admit an LSH family (its distance
// violates the triangle inequality) but is the better bucket-level match
// measure (paper Sec. 5.2, Fig. 9).
func (q Range) Containment(r Range) float64 {
	return float64(q.IntersectSize(r)) / float64(q.Size())
}

// Recall is how much of the desired answer the matched partition supplies:
// |q ∩ r| / |q|. For single ranges it coincides with Containment; it is
// named separately because the evaluation reports it as "part of query
// answered" (Figs. 8-10).
func (q Range) Recall(r Range) float64 { return q.Containment(r) }

// Pad expands the range by frac of its size on each edge, clamped to
// [floor, ceil]. The paper pads queries 20% on the edges (Fig. 10).
// The pad amount is at least 1 when frac > 0 so small ranges still grow.
func (r Range) Pad(frac float64, floor, ceil int64) Range {
	if frac <= 0 {
		return r
	}
	pad := int64(frac * float64(r.Size()))
	if pad < 1 {
		pad = 1
	}
	lo, hi := r.Lo-pad, r.Hi+pad
	if lo < floor {
		lo = floor
	}
	if hi > ceil {
		hi = ceil
	}
	return Range{lo, hi}
}

// Values materializes the value set. Intended for tests and small ranges.
func (r Range) Values() []int64 {
	vs := make([]int64, 0, r.Size())
	for v := r.Lo; v <= r.Hi; v++ {
		vs = append(vs, v)
	}
	return vs
}

// String formats the range in the paper's predicate style.
func (r Range) String() string { return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
