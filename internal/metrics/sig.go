package metrics

import "sync/atomic"

// SigStats counts signature-cache events on the hashing path: hits (a
// range's identifiers were reused verbatim), misses (the identifiers were
// computed), and cache evictions. Each minhash.Signer owns one. All
// methods are safe for concurrent use and tolerate a nil receiver, so
// call sites never need to guard against metrics being disabled.
//
// Every Add method — including calls on a nil receiver — also feeds the
// process-wide sig.* counter family of the Default registry, so the
// registered totals aggregate across all signers in the process with no
// wiring.
type SigStats struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// The Default-registry mirror of the sig.* family.
var (
	defSigHits      = Default.Counter("sig.hits")
	defSigMisses    = Default.Counter("sig.misses")
	defSigEvictions = Default.Counter("sig.evictions")
)

// AddHit records one signature-cache hit.
func (s *SigStats) AddHit() {
	defSigHits.Inc()
	if s != nil {
		s.hits.Add(1)
	}
}

// AddMiss records one signing request the cache could not answer.
func (s *SigStats) AddMiss() {
	defSigMisses.Inc()
	if s != nil {
		s.misses.Add(1)
	}
}

// AddEviction records one signature evicted from a bounded cache.
func (s *SigStats) AddEviction() {
	defSigEvictions.Inc()
	if s != nil {
		s.evictions.Add(1)
	}
}

// Reset zeroes this instance's counters (the Default-registry mirrors are
// reset through Registry.Reset). Nil receivers no-op.
func (s *SigStats) Reset() {
	if s == nil {
		return
	}
	s.hits.Store(0)
	s.misses.Store(0)
	s.evictions.Store(0)
}

// SigSnapshot is a point-in-time copy of SigStats (each counter is read
// atomically; the set is not a transaction).
type SigSnapshot struct {
	Hits   uint64
	Misses uint64
	// Deprecated: always 0, since signing has no extension path; read
	// Hits and Misses.
	Extends   uint64
	Evictions uint64
}

// Snapshot returns the current counter values. A nil SigStats yields a
// zero snapshot.
func (s *SigStats) Snapshot() SigSnapshot {
	if s == nil {
		return SigSnapshot{}
	}
	return SigSnapshot{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
	}
}

// Total returns the number of signing requests the snapshot covers.
func (s SigSnapshot) Total() uint64 { return s.Hits + s.Misses }

// HitRate returns the percentage of signing requests the cache answered,
// or 0 when none were issued.
func (s SigSnapshot) HitRate() float64 {
	if t := s.Total(); t > 0 {
		return 100 * float64(s.Hits) / float64(t)
	}
	return 0
}

// Sub returns the counter deltas since prev, for per-operation accounting
// over a cumulative stats object.
func (s SigSnapshot) Sub(prev SigSnapshot) SigSnapshot {
	return SigSnapshot{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Evictions: s.Evictions - prev.Evictions,
	}
}
