// Package minhash implements the locality sensitive hashing machinery of
// the paper "Approximate Range Selection Queries in Peer-to-Peer Systems"
// (Gupta, Agrawal, El Abbadi, CIDR 2003): hash a query range — viewed as
// the set of integers it contains — so that similar ranges collide.
//
// # Permutation families (paper Sec. 3.3, Fig. 3)
//
// A Permutation is a keyed bijection on 32-bit integers; the min-hash of a
// range Q under permutation pi is min{pi(x) : x in Q}. Three families are
// provided, matching the paper's Fig. 5 comparison:
//
//   - MinWise: min-wise independent bit permutations realized as the
//     paper's Fig. 3 keyed bit shuffle (several XOR/rotate rounds). Most
//     accurate, most expensive.
//   - ApproxMinWise: the cheap "approximate" variant that runs only the
//     first iteration of the shuffle.
//   - Linear: pi(x) = a*x + b mod p for a prime p > 2^32. Cheapest, but
//     only approximately min-wise; Fig. 7 shows its failure mode.
//
// # The (k, l) group scheme (Sec. 4)
//
// Scheme draws l groups of k permutations. A range's k min-hashes within a
// group XOR together (per the paper's pseudocode) into one 32-bit group
// identifier, giving l identifiers per range. Similar ranges agree on at
// least one identifier with high probability; the identifiers double as
// Chord positions (see internal/chord). DefaultK=20 and DefaultL=5 are the
// paper's evaluation parameters. ExactScheme is the Sec. 3.1 exact-match
// baseline (hash the range endpoints, no similarity).
//
// # Range-efficient signing (Fig. 5 performance)
//
// MinHash walks the range once per permutation, the linear cost Fig. 5
// measures; Scheme.Identifiers uses it and stays as the reference.
// MinHashRange computes the same minimum without visiting the values:
//
//   - The two shuffle families are bit-position permutations. A dyadic
//     block (a fixed prefix with its low t bits free) maps to a set whose
//     minimum is the image of the block's first element, and at most 64
//     blocks cover a range.
//   - The linear family takes the minimum of an affine map modulo p over
//     an interval with a Euclid-style recursion in O(log p) steps, the
//     primitive of range-efficient consistent sampling. Two such minima
//     cover the outputs Apply truncates to 32 bits.
//
// Signer is the one production path: it XOR-folds MinHashRange over each
// group's compiled permutations (Compile/Scheme.Compiled, four 256-entry
// byte-table lookups per Apply) and mixes, bit-identical to the naive
// path. An optional LRU keyed by range (WithSigCache) memoizes the l
// identifiers; its hits, misses and evictions surface through
// Signer.SigStats, and IdentifiersHit reports each call's own outcome.
package minhash
