package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"p2prange/internal/minhash"
	"p2prange/internal/rangeset"
)

func init() {
	Register("5", Fig5)
}

// Fig5 reproduces Figure 5: average wall-clock time to hash a query range
// with all l x k = 100 hash functions, as a function of the range size,
// for the three families. The faithful per-bit permutations are timed (not
// the compiled byte-table form), since the figure measures exactly that
// per-element permutation cost. Absolute times are host-dependent; the
// reproduced shape is linear growth in range size and the family ordering
// linear << approximate min-wise < min-wise independent.
//
// Alongside each naive column the table reports the range-efficient
// signer (minhash.Signer: exact minima over dyadic blocks or Euclid
// steps, see minhash.MinHashRange) on the same ranges — the production
// path every peer uses, byte-identical identifiers. Its cost is
// logarithmic in the range size, so those columns stay flat.
func Fig5(p Params) (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Execution times for the hash function families (ms per range, 100 hash functions)",
		Columns: []string{"size", "linear", "linear-range", "approx-min-wise", "approx-range", "min-wise", "min-wise-range", "min-wise-speedup"},
		Notes: fmt.Sprintf("sizes %v, mean of %d reps each, fastest of %d trials; naive = uncompiled per-bit permutations, range = range-efficient signer",
			p.TimingSizes, p.TimingReps, timingTrials),
	}
	rng := rand.New(rand.NewSource(p.Seed))
	schemes := make(map[minhash.Family]*minhash.Scheme)
	signers := make(map[minhash.Family]*minhash.Signer)
	for _, f := range minhash.Families() {
		s, err := minhash.NewDefaultScheme(f, rng)
		if err != nil {
			return nil, err
		}
		schemes[f] = s
		// No signature cache here: the figure times the cold hashing path,
		// and a cache would answer every rep after the first for free.
		signers[f] = minhash.NewSigner(s)
	}
	for _, size := range p.TimingSizes {
		row := []string{fmt.Sprintf("%d", size)}
		var naiveMinWise, rangeMinWise float64
		for _, f := range []minhash.Family{minhash.Linear, minhash.ApproxMinWise, minhash.MinWise} {
			naive := timeHasher(schemes[f], int64(size), p.TimingReps, p.Seed)
			ranged := timeHasher(signers[f], int64(size), p.TimingReps, p.Seed)
			row = append(row, fmt.Sprintf("%.4f", naive), fmt.Sprintf("%.4f", ranged))
			if f == minhash.MinWise {
				naiveMinWise, rangeMinWise = naive, ranged
			}
		}
		speedup := "-"
		if rangeMinWise > 0 {
			speedup = fmt.Sprintf("%.1fx", naiveMinWise/rangeMinWise)
		}
		row = append(row, speedup)
		t.AddRow(row...)
	}
	return t, nil
}

// timingTrials is how many times timeHasher times the same ranges. It
// keeps the fastest trial, so one preemption or GC pause cannot decide a
// cell.
const timingTrials = 5

// timeHasher measures the mean milliseconds to compute all identifiers of
// a range of the given size through h: reps ranges, timed timingTrials
// times over, reporting the fastest trial's mean.
func timeHasher(h minhash.Hasher, size int64, reps int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed + size))
	qs := make([]rangeset.Range, reps)
	for i := range qs {
		lo := rng.Int63n(100000)
		qs[i] = rangeset.Range{Lo: lo, Hi: lo + size - 1}
	}
	best := time.Duration(math.MaxInt64)
	for trial := 0; trial < timingTrials; trial++ {
		var total time.Duration
		for _, q := range qs {
			start := time.Now()
			_ = h.Identifiers(q)
			total += time.Since(start)
		}
		best = min(best, total)
	}
	return float64(best.Microseconds()) / float64(reps) / 1000
}
