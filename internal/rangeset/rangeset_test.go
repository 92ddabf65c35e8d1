package rangeset

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	tests := []struct {
		name    string
		lo, hi  int64
		want    Range
		wantErr bool
	}{
		{name: "ordinary", lo: 3, hi: 7, want: Range{3, 7}},
		{name: "single value", lo: 5, hi: 5, want: Range{5, 5}},
		{name: "negative", lo: -10, hi: -2, want: Range{-10, -2}},
		{name: "crosses zero", lo: -5, hi: 10, want: Range{-5, 10}},
		{name: "inverted", lo: 7, hi: 3, wantErr: true},
		{name: "inverted by one", lo: 1, hi: 0, wantErr: true},
		{name: "full int64 span", lo: math.MinInt64, hi: math.MaxInt64, want: Range{math.MinInt64, math.MaxInt64}},
		{name: "MinInt64 point", lo: math.MinInt64, hi: math.MinInt64, want: Range{math.MinInt64, math.MinInt64}},
		{name: "MaxInt64 point", lo: math.MaxInt64, hi: math.MaxInt64, want: Range{math.MaxInt64, math.MaxInt64}},
		{name: "inverted at bounds", lo: math.MaxInt64, hi: math.MinInt64, wantErr: true},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := New(tt.lo, tt.hi)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d, %d) error = %v, wantErr %v", tt.lo, tt.hi, err, tt.wantErr)
			}
			if tt.wantErr {
				if !errors.Is(err, ErrEmpty) {
					t.Errorf("New(%d, %d) error = %v, want ErrEmpty", tt.lo, tt.hi, err)
				}
				return
			}
			if got != tt.want {
				t.Errorf("New(%d, %d) = %v, want %v", tt.lo, tt.hi, got, tt.want)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(5,1) did not panic")
		}
	}()
	MustNew(5, 1)
}

func TestSize(t *testing.T) {
	cases := []struct {
		r    Range
		want int64
	}{
		{MustNew(0, 0), 1},
		{MustNew(30, 50), 21},
		{MustNew(-5, 5), 11},
	}
	for _, c := range cases {
		if got := c.r.Size(); got != c.want {
			t.Errorf("%v.Size() = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	r := MustNew(30, 50)
	for _, v := range []int64{30, 40, 50} {
		if !r.Contains(v) {
			t.Errorf("%v should contain %d", r, v)
		}
	}
	for _, v := range []int64{29, 51, -1} {
		if r.Contains(v) {
			t.Errorf("%v should not contain %d", r, v)
		}
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b  Range
		want  Range
		empty bool
	}{
		{MustNew(0, 10), MustNew(5, 15), MustNew(5, 10), false},
		{MustNew(0, 10), MustNew(10, 20), MustNew(10, 10), false},
		{MustNew(0, 10), MustNew(11, 20), Range{}, true},
		{MustNew(0, 100), MustNew(40, 60), MustNew(40, 60), false},
	}
	for _, c := range cases {
		got, ok := c.a.Intersect(c.b)
		if ok == c.empty {
			t.Errorf("%v ∩ %v: ok = %v", c.a, c.b, ok)
			continue
		}
		if !c.empty && got != c.want {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
		// Intersection commutes.
		got2, ok2 := c.b.Intersect(c.a)
		if got2 != got || ok2 != ok {
			t.Errorf("intersection not commutative for %v, %v", c.a, c.b)
		}
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b Range
		want float64
	}{
		{MustNew(30, 50), MustNew(30, 50), 1},
		{MustNew(0, 9), MustNew(10, 19), 0},
		{MustNew(0, 9), MustNew(5, 14), 5.0 / 15.0},
		{MustNew(30, 50), MustNew(30, 49), 20.0 / 21.0},
	}
	for _, c := range cases {
		if got := c.a.Jaccard(c.b); !close(got, c.want) {
			t.Errorf("Jaccard(%v,%v) = %g, want %g", c.a, c.b, got, c.want)
		}
		if got := c.b.Jaccard(c.a); !close(got, c.want) {
			t.Errorf("Jaccard(%v,%v) = %g, want %g (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestContainment(t *testing.T) {
	q := MustNew(30, 49) // the paper's example: query [30,49] vs cached [30,50]
	r := MustNew(30, 50)
	if got := q.Containment(r); got != 1 {
		t.Errorf("Containment(%v,%v) = %g, want 1 (answer fully contained)", q, r, got)
	}
	if got := r.Containment(q); got >= 1 {
		t.Errorf("Containment(%v,%v) = %g, want < 1", r, q, got)
	}
	if got := MustNew(0, 9).Containment(MustNew(100, 200)); got != 0 {
		t.Errorf("disjoint containment = %g, want 0", got)
	}
}

func TestPad(t *testing.T) {
	r := MustNew(100, 199) // size 100
	p := r.Pad(0.2, 0, 1000)
	if p.Lo != 80 || p.Hi != 219 {
		t.Errorf("Pad 20%% of %v = %v, want [80,219]", r, p)
	}
	// Clamped at domain edges.
	p = MustNew(0, 99).Pad(0.2, 0, 1000)
	if p.Lo != 0 || p.Hi != 119 {
		t.Errorf("clamped pad = %v, want [0,119]", p)
	}
	// Minimum pad of 1 for tiny ranges.
	p = MustNew(5, 5).Pad(0.2, 0, 1000)
	if p.Lo != 4 || p.Hi != 6 {
		t.Errorf("tiny pad = %v, want [4,6]", p)
	}
	// No-op pad.
	if p := r.Pad(0, 0, 1000); p != r {
		t.Errorf("Pad(0) = %v, want %v", p, r)
	}
}

func TestValues(t *testing.T) {
	vs := MustNew(3, 6).Values()
	want := []int64{3, 4, 5, 6}
	if len(vs) != len(want) {
		t.Fatalf("Values() = %v", vs)
	}
	for i := range vs {
		if vs[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", vs, want)
		}
	}
}

// randRange draws a range within [0, 1000].
func randRange(rng *rand.Rand) Range {
	a, b := rng.Int63n(1001), rng.Int63n(1001)
	if a > b {
		a, b = b, a
	}
	return Range{a, b}
}

// JaccardDistance is 1 - Jaccard(a, b). The paper (via Charikar) relies
// on it being a metric.
func JaccardDistance(a, b Range) float64 { return 1 - a.Jaccard(b) }

// ContainmentDistance is 1 - Containment(a, b), which is not a metric:
// the reason no LSH family exists for containment.
func ContainmentDistance(a, b Range) float64 { return 1 - a.Containment(b) }

// TestJaccardTriangleInequality verifies the property the whole hashing
// scheme rests on: 1 - Jaccard is a metric.
func TestJaccardTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const eps = 1e-12
	for i := 0; i < 20000; i++ {
		a, b, c := randRange(rng), randRange(rng), randRange(rng)
		ab, bc, ac := JaccardDistance(a, b), JaccardDistance(b, c), JaccardDistance(a, c)
		if ab+bc+eps < ac {
			t.Fatalf("triangle violated: d(%v,%v)+d(%v,%v)=%g < d(%v,%v)=%g",
				a, b, b, c, ab+bc, a, c, ac)
		}
	}
}

// TestContainmentNotMetric demonstrates the paper's Section 3.2 point: the
// containment distance violates the triangle inequality, so no LSH family
// exists for it.
func TestContainmentNotMetric(t *testing.T) {
	// Q ⊂ R and R ⊂ S-ish configuration with Q, S far apart:
	// d(Q,R) = 0 (Q inside R), d(R,S) small, but d(Q,S) large.
	q := MustNew(0, 9)
	r := MustNew(0, 999)
	s := MustNew(500, 999)
	dqr := ContainmentDistance(q, r) // 0: q fully inside r
	drs := ContainmentDistance(r, s)
	dqs := ContainmentDistance(q, s) // 1: disjoint
	if dqr+drs >= dqs {
		t.Fatalf("expected triangle violation, got d(q,r)+d(r,s)=%g >= d(q,s)=%g",
			dqr+drs, dqs)
	}
}

// bruteCounts counts |a ∩ b| and |a ∪ b| value by value.
func bruteCounts(a, b Range) (inter, union float64) {
	inSet := make(map[int64]int)
	for _, v := range a.Values() {
		inSet[v]++
	}
	for _, v := range b.Values() {
		inSet[v] += 2
	}
	for _, m := range inSet {
		union++
		if m == 3 {
			inter++
		}
	}
	return inter, union
}

// Property: Jaccard via range arithmetic agrees with brute-force set
// computation.
func TestJaccardMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randRange(rng), randRange(rng)
		inter, union := bruteCounts(a, b)
		return close(a.Jaccard(b), inter/union)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func() bool { return f() }, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Containment and Recall via range arithmetic agree with
// brute-force value counting, |a ∩ b| / |a|.
func TestContainmentMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		a, b := randRange(rng), randRange(rng)
		inter, _ := bruteCounts(a, b)
		want := inter / float64(len(a.Values()))
		if got := a.Containment(b); !close(got, want) {
			t.Fatalf("Containment(%v,%v) = %g, want %g", a, b, got, want)
		}
		if got := a.Recall(b); !close(got, want) {
			t.Fatalf("Recall(%v,%v) = %g, want %g", a, b, got, want)
		}
	}
}

func TestRecallBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		q, r := randRange(rng), randRange(rng)
		rec := q.Recall(r)
		if rec < 0 || rec > 1 {
			t.Fatalf("Recall(%v,%v) = %g out of [0,1]", q, r, rec)
		}
		if r.ContainsRange(q) && rec != 1 {
			t.Fatalf("Recall(%v,%v) = %g, want 1 when r contains q", q, r, rec)
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
