package minhash

import (
	"math"
	"math/rand"
	"testing"

	"p2prange/internal/rangeset"
)

// TestMinHashRangeMatchesMinHash is the property test for the
// range-efficient kernel: for every family, raw and compiled, it equals
// the per-value scan on random ranges and on the edge cases of the int64
// to uint32 mapping.
func TestMinHashRangeMatchesMinHash(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edges := []rangeset.Range{
		{Lo: -3, Hi: 3},                 // wraps in uint32: two intervals
		{Lo: -100, Hi: -1},              // negative bounds
		{Lo: 1<<32 - 5, Hi: 1<<32 + 5},  // crosses 2^32
		{Lo: 1 << 40, Hi: 1<<40 + 900},  // far from zero
		{Lo: -1 << 40, Hi: -1<<40 + 77}, // far below zero
		{Lo: 0, Hi: 0},                  // width 1
		{Lo: math.MaxUint32, Hi: math.MaxUint32},
		{Lo: 7, Hi: 6}, // inverted: no values
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, p := range allPerms(t, 100+seed) {
			for _, pp := range []Permutation{p, Compile(p)} {
				qs := append([]rangeset.Range(nil), edges...)
				for i := 0; i < 40; i++ {
					lo := rng.Int63n(1<<34) - 1<<33
					qs = append(qs, rangeset.Range{Lo: lo, Hi: lo + rng.Int63n(2000)})
				}
				for _, q := range qs {
					if got, want := MinHashRange(pp, q), MinHash(pp, q); got != want {
						t.Fatalf("%v (%T): MinHashRange(%v) = %08x, MinHash = %08x", p.Family(), pp, q, got, want)
					}
				}
			}
		}
	}
}

// TestLinearMinHashRangeWrappedOutputs covers linear outputs in
// [2^32, p), which Apply truncates to 0..14: the range is placed so that
// one of its values lands there.
func TestLinearMinHashRangeWrappedOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		a := uint64(rng.Int63n(int64(linearPrime-1))) + 1
		x := uint64(rng.Uint32())
		// b puts f(x) = a*x + b mod p at 2^32 + off, an output of off.
		off := uint64(rng.Intn(15))
		b := (1<<32 + off + linearPrime - mulAddMod(a, x, 0, linearPrime)) % linearPrime
		p, err := NewLinearPermutationCoeffs(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Apply(uint32(x)); uint64(got) != off {
			t.Fatalf("setup: Apply(%d) = %d, want %d", x, got, off)
		}
		lo := int64(x) - rng.Int63n(500)
		q := rangeset.Range{Lo: lo, Hi: lo + rng.Int63n(1000) + 500}
		if got, want := MinHashRange(p, q), MinHash(p, q); got != want {
			t.Fatalf("a=%d b=%d: MinHashRange(%v) = %d, MinHash = %d", a, b, q, got, want)
		}
	}
}

// TestMinHashRangeWholeDomain checks ranges of 2^32 or more values, too
// wide to scan: they cover every input, so a bit permutation's minimum is
// its image of 0, and every family agrees with the [0, 2^32-1] interval.
func TestMinHashRangeWholeDomain(t *testing.T) {
	whole := rangeset.Range{Lo: 0, Hi: math.MaxUint32}
	for _, p := range allPerms(t, 3) {
		want := MinHashRange(p, whole)
		if p.Family() != Linear && want != 0 {
			t.Errorf("%v: whole-domain minimum = %08x, want 0", p.Family(), want)
		}
		for _, q := range []rangeset.Range{
			{Lo: -5, Hi: 1<<32 - 6},
			{Lo: math.MinInt64, Hi: math.MaxInt64},
			{Lo: 1 << 50, Hi: 1<<50 + 1<<33},
		} {
			if got := MinHashRange(p, q); got != want {
				t.Errorf("%v: MinHashRange(%v) = %08x, want %08x", p.Family(), q, got, want)
			}
		}
	}
}

// TestAffineMinBruteForce checks the Euclid-style minimum against a scan,
// exhaustively over tiny moduli and randomly over small ones.
func TestAffineMinBruteForce(t *testing.T) {
	brute := func(n, m, a, b uint64) uint64 {
		best := uint64(math.MaxUint64)
		for y := uint64(0); y < n; y++ {
			best = min(best, (a*y+b)%m)
		}
		return best
	}
	check := func(n, m, a, b uint64) {
		if got, want := affineMin(n, m, a, b), brute(n, m, a, b); got != want {
			t.Fatalf("affineMin(n=%d, m=%d, a=%d, b=%d) = %d, want %d", n, m, a, b, got, want)
		}
	}
	for m := uint64(1); m <= 12; m++ {
		for a := uint64(0); a < m; a++ {
			for b := uint64(0); b < m; b++ {
				for n := uint64(1); n <= 3*m; n++ {
					check(n, m, a, b)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200000; i++ {
		m := uint64(rng.Intn(300)) + 1
		check(uint64(rng.Intn(700))+1, m, uint64(rng.Int63n(int64(m))), uint64(rng.Int63n(int64(m))))
	}
	// The linear family's modulus, with long sequences: products exceed
	// 64 bits, so the scan reduces each term in 128-bit arithmetic.
	for i := 0; i < 4; i++ {
		a, b := uint64(rng.Int63n(int64(linearPrime))), uint64(rng.Int63n(int64(linearPrime)))
		n := uint64(1<<20 + rng.Intn(1000))
		want := uint64(math.MaxUint64)
		for y := uint64(0); y < n; y++ {
			want = min(want, mulAddMod(a, y, b, linearPrime))
		}
		if got := affineMin(n, linearPrime, a, b); got != want {
			t.Fatalf("affineMin(n=%d, p, a=%d, b=%d) = %d, want %d", n, a, b, got, want)
		}
	}
}
