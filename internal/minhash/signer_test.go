package minhash

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"p2prange/internal/metrics"
	"p2prange/internal/rangeset"
)

// randRange draws a range of size in [1, maxSize] starting in [0, 100000).
func randRange(rng *rand.Rand, maxSize int64) rangeset.Range {
	lo := rng.Int63n(100000)
	return rangeset.Range{Lo: lo, Hi: lo + rng.Int63n(maxSize)}
}

// TestSignerGoldenEquivalence pins the signer's core contract: for every
// hash family, the signer — with and without a cache — produces
// identifiers bit-identical to the naive per-permutation Scheme path, on
// the paper's workload ranges (Sec. 5.1 uniform queries over [0, 1000]
// and their Fig. 10 20% pads) and on wider random ranges.
func TestSignerGoldenEquivalence(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			scheme, err := NewScheme(f, 4, 3, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			signers := map[string]*Signer{
				"plain":  NewSigner(scheme),
				"cached": NewSigner(scheme, WithSigCache(16)),
			}
			rng := rand.New(rand.NewSource(11))
			var qs []rangeset.Range
			for i := 0; i < 100; i++ {
				a, b := rng.Int63n(1001), rng.Int63n(1001)
				q := rangeset.Range{Lo: min(a, b), Hi: max(a, b)}
				qs = append(qs, q, q.Pad(0.20, 0, 1000), q)
			}
			for i := 0; i < 40; i++ {
				qs = append(qs, randRange(rng, 700))
			}
			for _, q := range qs {
				want := scheme.Identifiers(q)
				for name, s := range signers {
					if got := s.Identifiers(q); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s signer: identifiers of %s = %08x, naive scheme = %08x", name, q, got, want)
					}
				}
			}
		})
	}
}

// TestSignerCachePinned is the regression test for cache behavior: the
// exact sequence of hits, misses and evictions is pinned, each call
// reports its own outcome, and a padded probe that contains a cached
// range is a miss like any other uncached range.
func TestSignerCachePinned(t *testing.T) {
	scheme, err := NewScheme(ApproxMinWise, 3, 2, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSigner(scheme, WithSigCache(2))

	q1 := rangeset.Range{Lo: 100, Hi: 200}
	q1pad := rangeset.Range{Lo: 90, Hi: 210} // padded probe containing q1
	q2 := rangeset.Range{Lo: 5000, Hi: 5100}
	q3 := rangeset.Range{Lo: 9000, Hi: 9050}

	naive := scheme.Identifiers
	steps := []struct {
		q    rangeset.Range
		hit  bool
		want metrics.SigSnapshot
	}{
		{q1, false, metrics.SigSnapshot{Misses: 1}},                          // cold
		{q1, true, metrics.SigSnapshot{Misses: 1, Hits: 1}},                  // exact hit
		{q1pad, false, metrics.SigSnapshot{Misses: 2, Hits: 1}},              // padded: miss
		{q2, false, metrics.SigSnapshot{Misses: 3, Hits: 1, Evictions: 1}},   // q1 evicted (LRU)
		{q1pad, true, metrics.SigSnapshot{Misses: 3, Hits: 2, Evictions: 1}}, // still cached
		{q3, false, metrics.SigSnapshot{Misses: 4, Hits: 2, Evictions: 2}},   // q2 evicted
		{q1pad, true, metrics.SigSnapshot{Misses: 4, Hits: 3, Evictions: 2}}, // survived again
		{q1, false, metrics.SigSnapshot{Misses: 5, Hits: 3, Evictions: 3}},   // q3 evicted
	}
	for i, step := range steps {
		got, hit := s.IdentifiersHit(step.q)
		if want := naive(step.q); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: identifiers of %s = %08x, naive = %08x", i, step.q, got, want)
		}
		if hit != step.hit {
			t.Fatalf("step %d (%s): hit = %v, want %v", i, step.q, hit, step.hit)
		}
		if got := s.SigStats(); got != step.want {
			t.Fatalf("step %d (%s): stats = %+v, want %+v", i, step.q, got, step.want)
		}
	}
	// The caller owns the returned slice: changing it leaves the cache
	// intact.
	ids, _ := s.IdentifiersHit(q1)
	ids[0] ^= 1
	if got, hit := s.IdentifiersHit(q1); !hit || !reflect.DeepEqual(got, naive(q1)) {
		t.Fatalf("cached identifiers changed through a returned slice: %08x (hit %v)", got, hit)
	}
}

// TestSignerCacheConcurrent hammers one cached signer from many
// goroutines (exercised under -race by `make check`): results must stay
// bit-identical to the naive path, every request must be accounted as
// exactly one hit or miss, and the outcomes the calls report must sum to
// the signer's counters.
func TestSignerCacheConcurrent(t *testing.T) {
	scheme, err := NewScheme(MinWise, 3, 2, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSigner(scheme, WithSigCache(32))

	// A small pool of overlapping ranges so goroutines collide on cache
	// entries, plus per-goroutine unique ranges so eviction churns.
	shared := []rangeset.Range{
		{Lo: 0, Hi: 150}, {Lo: 0, Hi: 200}, {Lo: 50, Hi: 180}, {Lo: 10, Hi: 120},
	}
	want := make([][]ID, len(shared))
	for i, q := range shared {
		want[i] = scheme.Identifiers(q)
	}

	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	var hits atomic.Uint64
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < iters; i++ {
				si := rng.Intn(len(shared))
				got, hit := s.IdentifiersHit(shared[si])
				if !reflect.DeepEqual(got, want[si]) {
					errc <- errMismatch(shared[si])
					return
				}
				lo := int64(g*10000 + i)
				_, uniqueHit := s.IdentifiersHit(rangeset.Range{Lo: lo, Hi: lo + 40})
				for _, h := range []bool{hit, uniqueHit} {
					if h {
						hits.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	snap := s.SigStats()
	if got, wantN := snap.Total(), uint64(goroutines*iters*2); got != wantN {
		t.Fatalf("accounted %d signing requests (%+v), want %d", got, snap, wantN)
	}
	if snap.Hits == 0 {
		t.Error("expected cache hits on the shared ranges, got none")
	}
	if got := hits.Load(); got != snap.Hits {
		t.Errorf("calls reported %d hits, counters hold %d", got, snap.Hits)
	}
}

type errMismatch rangeset.Range

func (e errMismatch) Error() string {
	return "cached identifiers diverged from naive path for " + rangeset.Range(e).String()
}

// TestCompileIdempotent pins the compilation contract: Compile returns
// already-compiled (and uncompilable) permutations unchanged, and
// Scheme.Compiled caches its result and is a fixpoint.
func TestCompileIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	full := NewFullPermutation(rng)
	once := Compile(full)
	if Compile(once) != once {
		t.Error("Compile(Compile(p)) allocated a new permutation")
	}
	lin := NewLinearPermutation(rng)
	if Compile(lin) != Permutation(lin) {
		t.Error("Compile changed a linear permutation")
	}

	scheme, err := NewScheme(MinWise, 2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	c1 := scheme.Compiled()
	if c2 := scheme.Compiled(); c2 != c1 {
		t.Error("Scheme.Compiled allocated a second compiled scheme")
	}
	if c1.Compiled() != c1 {
		t.Error("Compiled() of a compiled scheme is not itself")
	}
	// An all-linear scheme needs no compilation at all.
	linScheme, err := NewScheme(Linear, 2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if linScheme.Compiled() != linScheme {
		t.Error("Compiled() of an uncompilable scheme is not the receiver")
	}
}

// TestSignerHasher pins that Signer satisfies Hasher and reports the
// scheme's shape.
func TestSignerHasher(t *testing.T) {
	scheme, err := NewDefaultScheme(Linear, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var h Hasher = NewSigner(scheme)
	if h.L() != DefaultL {
		t.Fatalf("L() = %d, want %d", h.L(), DefaultL)
	}
	if got := len(h.Identifiers(rangeset.Range{Lo: 1, Hi: 10})); got != DefaultL {
		t.Fatalf("len(Identifiers) = %d, want %d", got, DefaultL)
	}
}
