package minhash

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// Word is the identifier width in bits. The paper uses a 32-bit identifier
// space throughout.
const Word = 32

// A Permutation is a bijection on 32-bit integers. The min-hash of a set Q
// under permutation pi is min{pi(x) : x in Q}; two sets collide on that
// hash with probability equal to their Jaccard similarity when pi is drawn
// from a min-wise independent family.
type Permutation interface {
	// Apply maps x through the permutation.
	Apply(x uint32) uint32
	// Family names the permutation family for reporting.
	Family() Family
}

// Family identifies one of the paper's three hash function families.
type Family int

const (
	// MinWise is the full min-wise independent permutation: log2(32) = 5
	// iterations of the keyed bit shuffle of Fig. 3.
	MinWise Family = iota
	// ApproxMinWise performs only the first iteration of the shuffle; it is
	// representable by a single 32-bit key and roughly an order of
	// magnitude cheaper (paper Sec. 5.1).
	ApproxMinWise
	// Linear is pi(x) = a*x + b mod p with a != 0 and p prime > 2^32
	// (Broder et al.); cheap and exactly representable by (a, b).
	Linear
)

// String returns the family name as used in the paper's figures.
func (f Family) String() string {
	switch f {
	case MinWise:
		return "min-wise independent"
	case ApproxMinWise:
		return "approx. min-wise independent"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Families lists all three families in the paper's presentation order.
func Families() []Family { return []Family{MinWise, ApproxMinWise, Linear} }

// ErrBadKey reports an invalid permutation key.
var ErrBadKey = errors.New("minhash: invalid permutation key")

// shuffleRound performs one iteration of the Fig. 3 operation on the
// width-bit value x within each block of size block bits. The key selects,
// within every block, which bit positions move to the upper half of the
// block (in order); the remaining positions move to the lower half (in
// order). The key must have exactly block/2 bits set within each block.
func shuffleRound(x uint32, key uint32, block uint) uint32 {
	var out uint32
	for base := uint(0); base < Word; base += block {
		half := block / 2
		hi := base + half // upper half starts here (bit positions grow upward)
		lo := base
		hiN, loN := uint(0), uint(0)
		for i := uint(0); i < block; i++ {
			bit := (x >> (base + i)) & 1
			if (key>>(base+i))&1 == 1 {
				out |= bit << (hi + hiN)
				hiN++
			} else {
				out |= bit << (lo + loN)
				loN++
			}
		}
	}
	return out
}

// roundKeyValid reports whether key has exactly block/2 bits set in every
// block-aligned window of block bits.
func roundKeyValid(key uint32, block uint) bool {
	half := int(block / 2)
	for base := uint(0); base < Word; base += block {
		mask := uint32((uint64(1)<<block)-1) << base
		if bits.OnesCount32(key&mask) != half {
			return false
		}
	}
	return true
}

// randRoundKey draws a uniformly random valid round key for block size
// block: in every block-aligned window exactly half the bits are set.
func randRoundKey(rng *rand.Rand, block uint) uint32 {
	var key uint32
	half := int(block / 2)
	for base := uint(0); base < Word; base += block {
		// Choose half positions out of block via partial Fisher-Yates.
		pos := make([]uint, block)
		for i := range pos {
			pos[i] = uint(i)
		}
		for i := 0; i < half; i++ {
			j := i + rng.Intn(len(pos)-i)
			pos[i], pos[j] = pos[j], pos[i]
			key |= 1 << (base + pos[i])
		}
	}
	return key
}

// rounds is the number of shuffle iterations for a full permutation on
// Word-bit integers: block sizes 32, 16, 8, 4, 2.
const rounds = 5

// FullPermutation is the paper's min-wise independent permutation: rounds
// of keyed bit shuffles at halving block sizes (Fig. 3). The complete key
// material is five round keys; as in the paper these pack into two 32-bit
// integers (32 + 16+8+4+2 = 62 bits of positions), but we keep them
// unpacked for clarity and validate them instead.
type FullPermutation struct {
	keys [rounds]uint32
}

// NewFullPermutation draws a random full permutation from rng.
func NewFullPermutation(rng *rand.Rand) *FullPermutation {
	var p FullPermutation
	block := uint(Word)
	for r := 0; r < rounds; r++ {
		p.keys[r] = randRoundKey(rng, block)
		block /= 2
	}
	return &p
}

// NewFullPermutationKeys builds a full permutation from explicit round
// keys, validating the per-block popcount invariant.
func NewFullPermutationKeys(keys [rounds]uint32) (*FullPermutation, error) {
	block := uint(Word)
	for r := 0; r < rounds; r++ {
		if !roundKeyValid(keys[r], block) {
			return nil, fmt.Errorf("%w: round %d key %#x lacks %d set bits per %d-bit block",
				ErrBadKey, r, keys[r], block/2, block)
		}
		block /= 2
	}
	return &FullPermutation{keys: keys}, nil
}

// Apply runs all shuffle iterations.
func (p *FullPermutation) Apply(x uint32) uint32 {
	block := uint(Word)
	for r := 0; r < rounds; r++ {
		x = shuffleRound(x, p.keys[r], block)
		block /= 2
	}
	return x
}

// Family reports MinWise.
func (p *FullPermutation) Family() Family { return MinWise }

// ApproxPermutation is the first iteration of the full permutation only: a
// single keyed shuffle with a 32-bit key having 16 set bits.
type ApproxPermutation struct {
	key uint32
}

// NewApproxPermutation draws a random approximate permutation from rng.
func NewApproxPermutation(rng *rand.Rand) *ApproxPermutation {
	return &ApproxPermutation{key: randRoundKey(rng, Word)}
}

// NewApproxPermutationKey builds an approximate permutation from key,
// which must have exactly 16 set bits.
func NewApproxPermutationKey(key uint32) (*ApproxPermutation, error) {
	if !roundKeyValid(key, Word) {
		return nil, fmt.Errorf("%w: key %#x must have exactly %d set bits", ErrBadKey, key, Word/2)
	}
	return &ApproxPermutation{key: key}, nil
}

// Key returns the 32-bit shuffle key.
func (p *ApproxPermutation) Key() uint32 { return p.key }

// Apply performs the single shuffle iteration.
func (p *ApproxPermutation) Apply(x uint32) uint32 {
	return shuffleRound(x, p.key, Word)
}

// Family reports ApproxMinWise.
func (p *ApproxPermutation) Family() Family { return ApproxMinWise }

// linearPrime is the smallest prime larger than 2^32, so every residue of
// a 32-bit input is reachable and a*x+b mod p is injective on [0, 2^32).
const linearPrime uint64 = 4294967311

// LinearPermutation is pi(x) = a*x + b mod p truncated to 32 bits. With
// p > 2^32 the map is injective on 32-bit inputs; the truncation to the
// identifier space follows the paper's use of 32-bit identifiers.
type LinearPermutation struct {
	a, b uint64
}

// NewLinearPermutation draws a random linear permutation (a != 0) from rng.
func NewLinearPermutation(rng *rand.Rand) *LinearPermutation {
	a := uint64(rng.Int63n(int64(linearPrime-1))) + 1 // 1..p-1
	b := uint64(rng.Int63n(int64(linearPrime)))       // 0..p-1
	return &LinearPermutation{a: a, b: b}
}

// NewLinearPermutationCoeffs builds a linear permutation from explicit
// coefficients; a must be nonzero mod p.
func NewLinearPermutationCoeffs(a, b uint64) (*LinearPermutation, error) {
	if a%linearPrime == 0 {
		return nil, fmt.Errorf("%w: linear coefficient a must be nonzero mod %d", ErrBadKey, linearPrime)
	}
	return &LinearPermutation{a: a % linearPrime, b: b % linearPrime}, nil
}

// Apply computes a*x + b mod p in 128-bit arithmetic (a*x can exceed 64
// bits since a < 2^33 and x < 2^32).
func (p *LinearPermutation) Apply(x uint32) uint32 {
	hi, lo := bits.Mul64(p.a, uint64(x))
	_, rem := bits.Div64(hi, lo, linearPrime)
	return uint32((rem + p.b) % linearPrime)
}

// Family reports Linear.
func (p *LinearPermutation) Family() Family { return Linear }

// NewPermutation draws a random permutation of the given family from rng.
func NewPermutation(f Family, rng *rand.Rand) (Permutation, error) {
	switch f {
	case MinWise:
		return NewFullPermutation(rng), nil
	case ApproxMinWise:
		return NewApproxPermutation(rng), nil
	case Linear:
		return NewLinearPermutation(rng), nil
	default:
		return nil, fmt.Errorf("minhash: unknown family %d", int(f))
	}
}
