package minhash

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"p2prange/internal/rangeset"
)

func allPerms(t *testing.T, seed int64) []Permutation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ps []Permutation
	for _, f := range Families() {
		p, err := NewPermutation(f, rng)
		if err != nil {
			t.Fatalf("NewPermutation(%v): %v", f, err)
		}
		ps = append(ps, p)
	}
	return ps
}

// Every family must be injective on 32-bit inputs (it is a permutation of
// the domain); we verify on a large random sample.
func TestPermutationsInjective(t *testing.T) {
	for _, p := range allPerms(t, 1) {
		seen := make(map[uint32]uint32, 1<<16)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 1<<16; i++ {
			x := rng.Uint32()
			y := p.Apply(x)
			if prev, ok := seen[y]; ok && prev != x {
				t.Fatalf("%v: collision %08x: Apply(%08x) == Apply(%08x)", p.Family(), y, x, prev)
			}
			seen[y] = x
		}
	}
}

// Bit permutations preserve popcount; linear permutations do not, but must
// stay within the domain.
func TestShufflePreservesPopcount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full := NewFullPermutation(rng)
	approx := NewApproxPermutation(rng)
	for i := 0; i < 100000; i++ {
		x := rng.Uint32()
		if got, want := bits.OnesCount32(full.Apply(x)), bits.OnesCount32(x); got != want {
			t.Fatalf("full permutation changed popcount of %08x: %d -> %d", x, want, got)
		}
		if got, want := bits.OnesCount32(approx.Apply(x)), bits.OnesCount32(x); got != want {
			t.Fatalf("approx permutation changed popcount of %08x: %d -> %d", x, want, got)
		}
	}
}

// The paper's Fig. 3 example: 8-bit value, key with 4 set bits. We verify
// the same semantics at 32 bits by checking that bits selected by the key
// land in the upper half, in order.
func TestShuffleRoundSemantics(t *testing.T) {
	// key selects bits 0 and 1 plus 14 others; craft a simple case:
	// key = low 16 bits set → identity on a value with only low bits?
	key := uint32(0x0000ffff) // lower 16 positions move to the upper half
	x := uint32(0x00000001)   // bit 0 set
	got := shuffleRound(x, key, 32)
	// bit 0 is the first key-selected bit → goes to position 16.
	if got != 1<<16 {
		t.Fatalf("shuffleRound moved bit 0 to %08x, want %08x", got, uint32(1<<16))
	}
	// A non-selected bit: bit 16 is the first non-selected → position 0.
	got = shuffleRound(1<<16, key, 32)
	if got != 1 {
		t.Fatalf("shuffleRound moved bit 16 to %08x, want 1", got)
	}
}

func TestRoundKeyValidation(t *testing.T) {
	if _, err := NewApproxPermutationKey(0x0000ffff); err != nil {
		t.Errorf("balanced key rejected: %v", err)
	}
	if _, err := NewApproxPermutationKey(0x000000ff); err == nil {
		t.Error("unbalanced key accepted")
	}
	var keys [rounds]uint32
	keys[0] = 0x0000ffff
	keys[1] = 0x00ff00ff // 8 of 16 per 16-bit block
	keys[2] = 0x0f0f0f0f // 4 of 8 per 8-bit block
	keys[3] = 0x33333333 // 2 of 4 per 4-bit block
	keys[4] = 0x55555555 // 1 of 2 per 2-bit block
	if _, err := NewFullPermutationKeys(keys); err != nil {
		t.Errorf("valid round keys rejected: %v", err)
	}
	keys[2] = 0x0f0f0f0e // block 0 has 3 bits
	if _, err := NewFullPermutationKeys(keys); err == nil {
		t.Error("invalid round-2 key accepted")
	}
}

func TestRandRoundKeyBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, block := range []uint{32, 16, 8, 4, 2} {
		for i := 0; i < 200; i++ {
			key := randRoundKey(rng, block)
			if !roundKeyValid(key, block) {
				t.Fatalf("randRoundKey(%d) produced unbalanced key %08x", block, key)
			}
		}
	}
}

func TestLinearPermutationCoeffs(t *testing.T) {
	if _, err := NewLinearPermutationCoeffs(0, 5); err == nil {
		t.Error("a=0 accepted")
	}
	if _, err := NewLinearPermutationCoeffs(linearPrime, 5); err == nil {
		t.Error("a=p accepted (zero mod p)")
	}
	p, err := NewLinearPermutationCoeffs(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Apply(10); got != 37 {
		t.Errorf("3*10+7 = %d, want 37", got)
	}
	if p.a != 3 || p.b != 7 {
		t.Errorf("coefficients = %d, %d, want 3, 7", p.a, p.b)
	}
}

// Compile must be a semantics-preserving transformation.
func TestCompileEquivalence(t *testing.T) {
	for _, p := range allPerms(t, 5) {
		c := Compile(p)
		if c.Family() != p.Family() {
			t.Errorf("Compile changed family %v -> %v", p.Family(), c.Family())
		}
		err := quick.Check(func(x uint32) bool { return p.Apply(x) == c.Apply(x) }, &quick.Config{MaxCount: 5000})
		if err != nil {
			t.Errorf("%v: compiled mismatch: %v", p.Family(), err)
		}
	}
}

func TestCompiledSchemeIdentifiersMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, err := NewScheme(ApproxMinWise, 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.Compiled()
	wl := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		lo := wl.Int63n(1000)
		q := rangeset.Range{Lo: lo, Hi: lo + wl.Int63n(100)}
		a, b := s.Identifiers(q), cs.Identifiers(q)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("identifier mismatch for %v group %d: %08x != %08x", q, j, a[j], b[j])
			}
		}
	}
}

// The defining property of min-wise hashing: Pr[h(Q) == h(R)] ≈
// Jaccard(Q, R). Linear permutations are (approximately) min-wise
// independent, so the property holds across the similarity scale.
func TestLinearMinHashCollisionProbability(t *testing.T) {
	cases := []struct {
		q, r rangeset.Range
	}{
		{rangeset.Range{Lo: 30, Hi: 50}, rangeset.Range{Lo: 30, Hi: 49}}, // sim ≈ 0.95
		{rangeset.Range{Lo: 0, Hi: 99}, rangeset.Range{Lo: 50, Hi: 149}}, // sim = 1/3
		{rangeset.Range{Lo: 0, Hi: 9}, rangeset.Range{Lo: 100, Hi: 109}}, // sim = 0
		{rangeset.Range{Lo: 10, Hi: 20}, rangeset.Range{Lo: 10, Hi: 20}}, // sim = 1
	}
	const trials = 3000
	rng := rand.New(rand.NewSource(8))
	for _, c := range cases {
		coll := 0
		for i := 0; i < trials; i++ {
			p := NewLinearPermutation(rng)
			if MinHash(p, c.q) == MinHash(p, c.r) {
				coll++
			}
		}
		got := float64(coll) / trials
		want := c.q.Jaccard(c.r)
		// 4-sigma tolerance for a binomial estimate.
		tol := 4*0.5/67 + 0.02 // ~0.05
		if got < want-tol || got > want+tol {
			t.Errorf("Pr[h(%v)=h(%v)] = %.3f, want ≈ %.3f", c.q, c.r, got, want)
		}
	}
}

// The bit-shuffle families are only approximately min-wise: the shuffle
// preserves popcount (and fixes 0), biasing the argmin toward low-popcount
// elements. The locality property the system needs still holds: identical
// sets always collide, disjoint sets never do (injectivity), and
// high-similarity sets collide with high probability.
func TestBitShuffleMinHashQualitative(t *testing.T) {
	const trials = 2000
	for _, f := range []Family{MinWise, ApproxMinWise} {
		rng := rand.New(rand.NewSource(9))
		same := rangeset.Range{Lo: 10, Hi: 20}
		disjA := rangeset.Range{Lo: 0, Hi: 9}
		disjB := rangeset.Range{Lo: 100, Hi: 109}
		simQ := rangeset.Range{Lo: 30, Hi: 50}
		simR := rangeset.Range{Lo: 30, Hi: 49} // Jaccard ≈ 0.95
		var collSame, collDisj, collSim int
		for i := 0; i < trials; i++ {
			p, err := NewPermutation(f, rng)
			if err != nil {
				t.Fatal(err)
			}
			cp := Compile(p)
			if MinHash(cp, same) == MinHash(cp, same) {
				collSame++
			}
			if MinHash(cp, disjA) == MinHash(cp, disjB) {
				collDisj++
			}
			if MinHash(cp, simQ) == MinHash(cp, simR) {
				collSim++
			}
		}
		if collSame != trials {
			t.Errorf("%v: identical sets collided %d/%d times, want always", f, collSame, trials)
		}
		if collDisj != 0 {
			t.Errorf("%v: disjoint sets collided %d times, want never (injectivity)", f, collDisj)
		}
		if frac := float64(collSim) / trials; frac < 0.60 {
			t.Errorf("%v: 0.95-similar sets collided only %.2f of the time", f, frac)
		}
	}
}

// The approximate family is a weaker hash; its collision probability
// should still be monotone in similarity and exact at the endpoints.
func TestApproxMinHashEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	same := rangeset.Range{Lo: 5, Hi: 25}
	for i := 0; i < 500; i++ {
		p := NewApproxPermutation(rng)
		if MinHash(p, same) != MinHash(p, same) {
			t.Fatal("identical ranges must always collide")
		}
	}
}

func TestNewGroupValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	if _, err := NewGroup(MinWise, 0, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewScheme(MinWise, 2, 0, rng); err == nil {
		t.Error("l=0 accepted")
	}
}

func TestSchemeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s, err := NewDefaultScheme(Linear, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != DefaultK || s.L() != DefaultL {
		t.Errorf("default scheme is (%d,%d), want (%d,%d)", s.K(), s.L(), DefaultK, DefaultL)
	}
	ids := s.Identifiers(rangeset.Range{Lo: 0, Hi: 10})
	if len(ids) != DefaultL {
		t.Errorf("Identifiers returned %d ids, want %d", len(ids), DefaultL)
	}
	// Deterministic: same scheme, same input, same ids.
	ids2 := s.Identifiers(rangeset.Range{Lo: 0, Hi: 10})
	for i := range ids {
		if ids[i] != ids2[i] {
			t.Error("identifiers are not deterministic")
		}
	}
}

// Identical ranges always agree on every group; that is what makes exact
// repeats always findable.
func TestSchemeExactAlwaysCollides(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, f := range Families() {
		s, err := NewScheme(f, 5, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		q := rangeset.Range{Lo: 42, Hi: 77}
		a, b := s.Identifiers(q), s.Identifiers(q)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: identical range produced different identifiers", f)
			}
		}
	}
}

func TestCollideProbability(t *testing.T) {
	// Step shape at k=20, l=5: near 0 at sim 0.5, near 1 at sim 0.99.
	if p := CollideProbability(0.5, 20, 5); p > 0.01 {
		t.Errorf("P(collide | sim=0.5) = %g, want ~0", p)
	}
	if p := CollideProbability(0.99, 20, 5); p < 0.90 {
		t.Errorf("P(collide | sim=0.99) = %g, want near 1", p)
	}
	// Monotone in similarity.
	prev := 0.0
	for s := 0.0; s <= 1.0; s += 0.01 {
		p := CollideProbability(s, 20, 5)
		if p < prev-1e-12 {
			t.Fatalf("collision probability not monotone at sim=%.2f", s)
		}
		prev = p
	}
}

// The group identifier is the XOR of member min-hashes; verify against a
// manual computation.
func TestGroupIdentifierIsXOROfMinHashes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g, err := NewGroup(Linear, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := rangeset.Range{Lo: 10, Hi: 30}
	var want ID
	for _, p := range g.perms {
		want ^= MinHash(p, q)
	}
	if got := g.Identifier(q); got != mix32(want) {
		t.Errorf("Identifier = %08x, want mix32(%08x)", got, want)
	}
}

// TestIdentifierSpread verifies the Fig. 11 prerequisite: group
// identifiers must spread across the whole 32-bit ring, not concentrate
// in the low region where raw min-hash XORs land. We check that the
// identifiers of a realistic workload occupy all 16 top-nibble buckets
// roughly uniformly.
func TestIdentifierSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s, err := NewDefaultScheme(ApproxMinWise, rng)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.Compiled()
	wl := rand.New(rand.NewSource(21))
	counts := make([]int, 16)
	total := 0
	for i := 0; i < 400; i++ {
		a, b := wl.Int63n(1001), wl.Int63n(1001)
		if a > b {
			a, b = b, a
		}
		for _, id := range cs.Identifiers(rangeset.Range{Lo: a, Hi: b}) {
			counts[id>>28]++
			total++
		}
	}
	for nib, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.01 || frac > 0.20 {
			t.Errorf("top nibble %x holds %.1f%% of identifiers (want ≈ 6.25%%)", nib, 100*frac)
		}
	}
}

// TestMix32Bijective samples the avalanche mix for collisions; as a
// bijection it must never map two inputs to one output.
func TestMix32Bijective(t *testing.T) {
	seen := make(map[uint32]uint32, 1<<16)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 1<<16; i++ {
		x := rng.Uint32()
		y := mix32(x)
		if prev, ok := seen[y]; ok && prev != x {
			t.Fatalf("mix32 collision: %08x and %08x -> %08x", x, prev, y)
		}
		seen[y] = x
	}
}
