package minhash

import (
	"sync"

	"p2prange/internal/metrics"
	"p2prange/internal/rangeset"
)

// Signer is the production signing path over one Scheme. It computes a
// range's l identifiers with MinHashRange, whose cost is logarithmic in
// the range size, over the scheme's compiled permutations, and optionally
// memoizes them in a bounded LRU keyed by range.
//
// Identifiers are bit-identical to the naive Scheme path for every hash
// family, so Signer satisfies Hasher and is a drop-in replacement
// anywhere a Scheme is used.
//
// A Signer is safe for concurrent use.
type Signer struct {
	scheme *Scheme
	stats  metrics.SigStats

	mu    sync.Mutex
	cache *sigLRU
}

// SignerOption configures a Signer.
type SignerOption func(*Signer)

// WithSigCache bounds the signature cache to capacity entries (LRU,
// keyed by exact range); capacity <= 0 disables caching.
func WithSigCache(capacity int) SignerOption {
	return func(s *Signer) {
		if capacity > 0 {
			s.cache = newSigLRU(capacity)
		} else {
			s.cache = nil
		}
	}
}

// NewSigner builds a signer over scheme. The scheme is compiled at
// most once (Compiled is cached and idempotent), so many signers over the
// same scheme share one set of byte tables.
func NewSigner(scheme *Scheme, opts ...SignerOption) *Signer {
	s := &Signer{scheme: scheme.Compiled()}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// L implements Hasher.
func (s *Signer) L() int { return s.scheme.L() }

// Identifiers implements Hasher: the l bucket identifiers of q.
func (s *Signer) Identifiers(q rangeset.Range) []ID {
	ids, _ := s.IdentifiersHit(q)
	return ids
}

// IdentifiersHit returns the l bucket identifiers of q and whether this
// call found them in the signature cache. A signer without a cache
// reports every call as a miss. The returned slice is the caller's.
func (s *Signer) IdentifiersHit(q rangeset.Range) ([]ID, bool) {
	if s.cache != nil {
		s.mu.Lock()
		ids, ok := s.cache.get(q)
		s.mu.Unlock()
		if ok {
			s.stats.AddHit()
			return append([]ID(nil), ids...), true
		}
	}
	s.stats.AddMiss()
	ids := make([]ID, s.scheme.L())
	for i, g := range s.scheme.groups {
		var id ID
		for _, p := range g.perms {
			id ^= MinHashRange(p, q)
		}
		ids[i] = mix32(id)
	}
	if s.cache != nil {
		s.mu.Lock()
		evicted := s.cache.put(q, append([]ID(nil), ids...))
		s.mu.Unlock()
		for ; evicted > 0; evicted-- {
			s.stats.AddEviction()
		}
	}
	return ids, false
}

// SigStats returns a snapshot of the signer's own counters: hits, misses
// and evictions.
func (s *Signer) SigStats() metrics.SigSnapshot { return s.stats.Snapshot() }
