package minhash

import (
	"math"
	"math/bits"

	"p2prange/internal/rangeset"
)

// MinHashRange returns min{pi(v) : v in q}, the same value as MinHash,
// without visiting the range's values: the work is logarithmic in the
// range size instead of linear.
//
// Values map to 32-bit inputs as in MinHash (v wraps modulo 2^32), so a
// range of 2^32 or more values covers the whole input space, and a range
// that crosses a multiple of 2^32 (such as [-3, 3]) covers two intervals
// of it. An inverted range has no values and yields math.MaxUint32.
//
// The two bit-shuffle families (full and approximate, raw or compiled)
// take the minimum over the dyadic blocks covering each interval; linear
// permutations take two Euclid-style minima of an affine map modulo p.
// Any other Permutation falls back to MinHash.
func MinHashRange(p Permutation, q rangeset.Range) ID {
	switch p.(type) {
	case *compiledPerm, *FullPermutation, *ApproxPermutation, *LinearPermutation:
	default:
		return MinHash(p, q)
	}
	if q.Hi < q.Lo {
		return math.MaxUint32
	}
	// Hi-Lo fits in a uint64 for every valid range, even where the int64
	// subtraction would overflow.
	if uint64(q.Hi)-uint64(q.Lo) >= math.MaxUint32 {
		return intervalMin(p, 0, math.MaxUint32)
	}
	lo, hi := uint32(uint64(q.Lo)), uint32(uint64(q.Hi))
	if lo <= hi {
		return intervalMin(p, lo, hi)
	}
	return min(intervalMin(p, lo, math.MaxUint32), intervalMin(p, 0, hi))
}

// intervalMin is the minimum of p over the 32-bit inputs [lo, hi].
func intervalMin(p Permutation, lo, hi uint32) uint32 {
	if lp, ok := p.(*LinearPermutation); ok {
		return lp.rangeMin(lo, hi)
	}
	return bitPermMin(p, lo, hi)
}

// bitPermMin is the minimum of p over [lo, hi] for a bit-position
// permutation p. A dyadic block {s | o : o < 2^t}, with the low t bits of
// s clear, maps to p(s) | p(o) with disjoint bits, and p(0) = 0, so the
// block's minimum is p(s). At most 2*32 blocks cover [lo, hi].
func bitPermMin(p Permutation, lo, hi uint32) uint32 {
	m := uint32(math.MaxUint32)
	for s, end := uint64(lo), uint64(hi)+1; s < end; {
		// The largest aligned block at s that ends inside the interval.
		t := bits.TrailingZeros64(s | 1<<32)
		for s+1<<t > end {
			t--
		}
		m = min(m, p.Apply(uint32(s)))
		s += 1 << t
	}
	return m
}

// rangeMin is the minimum of the linear permutation over [lo, hi]. Apply
// truncates f(x) = (a*x + b) mod p to 32 bits, so an f(x) in [2^32, p)
// comes out as f(x) - 2^32, one of 0..14. Two affine minima cover both
// cases: r = min f, which is an output when r < 2^32, and g = min of
// (f + 15) mod p, which sends [2^32, p) to [0, 15) and everything else to
// 15 or above, so it is an output when g < 15.
func (lp *LinearPermutation) rangeMin(lo, hi uint32) uint32 {
	const wrap = linearPrime - 1<<32 // 15
	n := uint64(hi) - uint64(lo) + 1
	b := mulAddMod(lp.a, uint64(lo), lp.b, linearPrime)
	m := uint64(math.MaxUint32)
	if r := affineMin(n, linearPrime, lp.a, b); r < 1<<32 {
		m = r
	}
	if g := affineMin(n, linearPrime, lp.a, (b+wrap)%linearPrime); g < wrap {
		m = min(m, g)
	}
	return uint32(m)
}

// affineMin returns min{(a*y + b) mod m : 0 <= y < n} for n >= 1 and
// a, b < m, in O(log m) steps.
//
// Each step first makes the sequence rise: if 2a > m, reading it
// backwards gives the same values with step m - a from the last value.
// A rising sequence is a run from b, then one run per wrap past m, and
// each run's minimum is its first value. The j-th wrap starts at
// (b - j*m) mod a, so the post-wrap starts form another affine sequence,
// modulo a <= m/2, with one term per wrap.
func affineMin(n, m, a, b uint64) uint64 {
	best := b
	for a != 0 {
		if 2*a > m {
			b = mulAddMod(a, n-1, b, m)
			a = m - a
		}
		best = min(best, b)
		hi, lo := bits.Mul64(a, n-1)
		lo, carry := bits.Add64(lo, b, 0)
		wraps, _ := bits.Div64(hi+carry, lo, m)
		if wraps == 0 {
			break
		}
		step := (a - m%a) % a
		n, m, a, b = wraps, a, step, (step+b%a)%a
	}
	return min(best, b)
}

// mulAddMod returns (a*x + b) mod m in 128-bit arithmetic; a, b < m.
func mulAddMod(a, x, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	lo, carry := bits.Add64(lo, b, 0)
	_, r := bits.Div64(hi+carry, lo, m)
	return r
}
