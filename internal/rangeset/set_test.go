package rangeset

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewSetNormalizes(t *testing.T) {
	s := NewSet(MustNew(5, 10), MustNew(0, 3), MustNew(4, 6), MustNew(20, 25))
	// [0,3] and [4,6] are adjacent → merge; [4,6] overlaps [5,10] → merge.
	got := s.Ranges()
	want := []Range{{0, 10}, {20, 25}}
	if len(got) != len(want) {
		t.Fatalf("Ranges() = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Ranges() = %v, want %v", got, want)
		}
	}
}

func TestNewSet(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	tests := []struct {
		name     string
		in       []Range
		want     []Range
		wantSize int64
	}{
		{name: "no ranges", in: nil, want: nil},
		{name: "only inverted ranges", in: []Range{{5, 1}, {0, -1}}, want: nil},
		{name: "inverted dropped", in: []Range{{5, 1}, {2, 3}}, want: []Range{{2, 3}}, wantSize: 2},
		{name: "single", in: []Range{{4, 9}}, want: []Range{{4, 9}}, wantSize: 6},
		{name: "adjacent merge", in: []Range{{0, 3}, {4, 6}}, want: []Range{{0, 6}}, wantSize: 7},
		{name: "gap of one kept", in: []Range{{0, 3}, {5, 6}}, want: []Range{{0, 3}, {5, 6}}, wantSize: 6},
		{name: "overlap merge", in: []Range{{0, 5}, {3, 8}}, want: []Range{{0, 8}}, wantSize: 9},
		{name: "contained merge", in: []Range{{0, 10}, {5, 6}}, want: []Range{{0, 10}}, wantSize: 11},
		{name: "duplicates", in: []Range{{2, 4}, {2, 4}}, want: []Range{{2, 4}}, wantSize: 3},
		{
			name:     "unsorted input",
			in:       []Range{{20, 25}, {5, 10}, {0, 3}, {4, 6}},
			want:     []Range{{0, 10}, {20, 25}},
			wantSize: 17,
		},
		{name: "contained in range ending at MaxInt64", in: []Range{{1, maxI}, {5, 10}}, want: []Range{{1, maxI}}, wantSize: maxI},
		{name: "adjacent at MaxInt64", in: []Range{{maxI, maxI}, {1, maxI - 1}}, want: []Range{{1, maxI}}, wantSize: maxI},
		{name: "points at both bounds", in: []Range{{maxI, maxI}, {minI, minI}}, want: []Range{{minI, minI}, {maxI, maxI}}, wantSize: 2},
		{name: "adjacent at MinInt64", in: []Range{{minI + 1, -2}, {minI, minI}}, want: []Range{{minI, -2}}, wantSize: maxI},
		{name: "full span absorbs", in: []Range{{0, maxI}, {5, 10}, {minI, 0}}, want: []Range{{minI, maxI}}},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewSet(tt.in...)
			got := s.Ranges()
			if len(got) != len(tt.want) {
				t.Fatalf("NewSet(%v).Ranges() = %v, want %v", tt.in, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("NewSet(%v).Ranges() = %v, want %v", tt.in, got, tt.want)
				}
			}
			// [MinInt64, MaxInt64] holds 2^64 values, beyond int64.
			if len(tt.want) > 0 && tt.want[0] == (Range{minI, maxI}) {
				return
			}
			if size := s.Size(); size != tt.wantSize {
				t.Errorf("NewSet(%v).Size() = %d, want %d", tt.in, size, tt.wantSize)
			}
		})
	}
}

func TestSetEmpty(t *testing.T) {
	var s Set
	if !s.Empty() || s.Size() != 0 {
		t.Error("zero Set should be empty")
	}
	if s.Contains(0) {
		t.Error("empty set contains nothing")
	}
	if got := NewSet().String(); got != "∅" {
		t.Errorf("empty String() = %q", got)
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(MustNew(0, 5), MustNew(10, 15))
	for _, v := range []int64{0, 5, 10, 15, 3} {
		if !s.Contains(v) {
			t.Errorf("set should contain %d", v)
		}
	}
	for _, v := range []int64{-1, 6, 9, 16} {
		if s.Contains(v) {
			t.Errorf("set should not contain %d", v)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(MustNew(0, 10), MustNew(20, 30))
	b := NewSet(MustNew(5, 25))
	inter := a.Intersect(b)
	if got := inter.Size(); got != 6+6 {
		t.Errorf("intersection size = %d, want 12 (%v)", got, inter)
	}
	union := a.Union(b)
	if got := union.Size(); got != 31 {
		t.Errorf("union size = %d, want 31 (%v)", got, union)
	}
	// |A| + |B| = |A∪B| + |A∩B|
	if a.Size()+b.Size() != union.Size()+inter.Size() {
		t.Error("inclusion-exclusion violated")
	}
}

func randSet(rng *rand.Rand) Set {
	n := 1 + rng.Intn(4)
	rs := make([]Range, n)
	for i := range rs {
		rs[i] = randRange(rng)
	}
	return NewSet(rs...)
}

func TestSetAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b := randSet(rng), randSet(rng)
		inter, union := a.Intersect(b), a.Union(b)
		if a.Size()+b.Size() != union.Size()+inter.Size() {
			t.Fatalf("inclusion-exclusion violated for %v, %v", a, b)
		}
		// Commutativity.
		if got := b.Intersect(a).Size(); got != inter.Size() {
			t.Fatalf("intersection not commutative for %v, %v", a, b)
		}
		if got := b.Union(a).Size(); got != union.Size() {
			t.Fatalf("union not commutative for %v, %v", a, b)
		}
		// Bounds: A∩B ⊆ A ⊆ A∪B.
		if inter.Size() > a.Size() || a.Size() > union.Size() {
			t.Fatalf("size monotonicity violated for %v, %v", a, b)
		}
		// Jaccard within [0,1] and consistent with Range.Jaccard for
		// single-interval sets.
		j := a.Jaccard(b)
		if j < 0 || j > 1 {
			t.Fatalf("Jaccard out of range: %g", j)
		}
	}
}

func TestSetJaccardMatchesRangeJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		a, b := randRange(rng), randRange(rng)
		sa, sb := NewSet(a), NewSet(b)
		if got, want := sa.Jaccard(sb), a.Jaccard(b); !close(got, want) {
			t.Fatalf("Set.Jaccard(%v,%v) = %g, want %g", a, b, got, want)
		}
		if got, want := sa.Containment(sb), a.Containment(b); !close(got, want) {
			t.Fatalf("Set.Containment(%v,%v) = %g, want %g", a, b, got, want)
		}
	}
}

func TestSetIterate(t *testing.T) {
	s := NewSet(MustNew(0, 2), MustNew(10, 11))
	var got []int64
	s.Iterate(func(v int64) bool {
		got = append(got, v)
		return true
	})
	want := []int64{0, 1, 2, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("Iterate visited %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Iterate visited %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	s.Iterate(func(v int64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d values, want 2", count)
	}
}
