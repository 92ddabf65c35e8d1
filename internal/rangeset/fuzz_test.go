package rangeset

import "testing"

// FuzzSimilarityBounds asserts every similarity measure stays within
// [0, 1] and equals 1 exactly for identical non-empty ranges.
func FuzzSimilarityBounds(f *testing.F) {
	f.Add(int64(0), int64(10), int64(5), int64(20))
	f.Add(int64(3), int64(3), int64(3), int64(3))
	f.Fuzz(func(t *testing.T, a, b, c, d int64) {
		if b < a || d < c || b-a > 1<<30 || d-c > 1<<30 || a < -(1<<40) || c < -(1<<40) || a > 1<<40 || c > 1<<40 {
			return
		}
		q := Range{Lo: a, Hi: b}
		r := Range{Lo: c, Hi: d}
		for name, v := range map[string]float64{
			"jaccard":     q.Jaccard(r),
			"containment": q.Containment(r),
			"recall":      q.Recall(r),
		} {
			if v < 0 || v > 1 {
				t.Fatalf("%s(%v,%v) = %g out of [0,1]", name, q, r, v)
			}
		}
		if q == r && q.Jaccard(r) != 1 {
			t.Fatalf("identical ranges Jaccard = %g", q.Jaccard(r))
		}
	})
}
