package store

import (
	"p2prange/internal/chord"
	"p2prange/internal/metrics"
	"p2prange/internal/rangeset"
	"p2prange/internal/trace"
)

var (
	metMissDisk     = metrics.Default.Counter("store.miss_disk")
	metMissDiskHits = metrics.Default.Counter("store.miss_disk_hits")
	metAdmits       = metrics.Default.Counter("store.admits")
	metDiskErrs     = metrics.Default.Counter("store.disk_errors")
)

// SegmentSource is the disk tier behind a read-through store: one sealed
// segment holding the folded image of every descriptor as of its seal
// (wal.SegmentReader implements it). All methods are safe for concurrent
// use and must not call back into the store.
type SegmentSource interface {
	// Len returns the number of descriptors in the segment.
	Len() int
	// MayContain reports whether bucket id may have records here; false
	// is definitive and costs no I/O.
	MayContain(id ID) bool
	// MayContainKey is MayContain for one descriptor identity.
	MayContainKey(id ID, key string) bool
	// Get returns the descriptor with identity key in bucket id.
	Get(id ID, key string) (Partition, bool, error)
	// Bucket calls fn for every descriptor in bucket id, in key order.
	Bucket(id ID, fn func(Partition) error) error
	// Scan calls fn for every descriptor, in (id, key) order.
	Scan(fn func(ID, Partition) error) error
	// ScanArc is Scan restricted to the ring arc (from, to]
	// (from == to means the whole circle).
	ScanArc(from, to ID, fn func(ID, Partition) error) error
}

// The overlay: where memory diverges from the segment, between two
// seals. The segment is immutable, so every divergence is one of three
// kinds, each stamped with the WAL epoch (wal.Log.Epoch) whose fold will
// absorb it — SwapSegments clears entries at or below the folded epoch.
//
//   - pin: a descriptor journaled since the seal (new put or version
//     upgrade). Pinned entries live in memory OUTSIDE the LRU: evicting
//     one before it reaches a segment would lose it, since tiered
//     capacity evictions are silent (see evictLocked).
//   - tombstone: an identity deleted since the seal, masking the
//     segment's copy until the fold applies the evict record.
//   - arc tombstone: an ExtractArc since the seal, masking every
//     segment record on the arc.

// pin marks one in-memory descriptor as not yet segment-backed.
type pin struct {
	id    ID
	epoch uint64
}

// arcTomb masks segment records on the arc (from, to] dropped at epoch.
type arcTomb struct {
	from, to ID
	epoch    uint64
}

// SetSegments switches the store into two-tier mode with src as the disk
// tier (nil is valid: two-tier bookkeeping starts, reads stay
// memory-only until the first SwapSegments). Call it at boot, before any
// descriptors are stored — wal.Open does, for a bounded store, before
// WAL replay.
func (s *Store) SetSegments(src SegmentSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tiered = true
	s.segs = src
	s.total = s.count
	if src != nil {
		s.total += src.Len()
	}
	if s.pinned == nil {
		s.pinned = make(map[string]pin)
		s.tombs = make(map[string]uint64)
	}
}

// SwapSegments replaces the disk tier with the segment produced by a
// compaction that folded WAL files up to sequence upto (the log wal.Open
// attached calls it after each fold). Pins and tombstones stamped at or
// below upto are covered by the new segment and dissolve: pinned
// descriptors become ordinary cache entries (LRU-tracked, evictable),
// tombstones and arc masks drop. Memory above capacity after unpinning
// is trimmed.
func (s *Store) SwapSegments(src SegmentSource, upto uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs = src
	for k, pn := range s.pinned {
		if pn.epoch > upto {
			continue
		}
		delete(s.pinned, k)
		if s.cap > 0 {
			if _, ok := s.index[k]; !ok {
				s.index[k] = s.lru.PushFront(lruEntry{id: pn.id, key: k})
			}
		}
	}
	for k, ep := range s.tombs {
		if ep <= upto {
			delete(s.tombs, k)
		}
	}
	kept := s.arcTombs[:0]
	for _, at := range s.arcTombs {
		if at.epoch > upto {
			kept = append(kept, at)
		}
	}
	s.arcTombs = kept
	if s.cap > 0 {
		for s.count > s.cap && s.lru.Len() > 0 {
			s.evictLocked()
		}
	}
}

// MemLen returns the number of descriptors resident in memory — the
// cache occupancy, at most Len().
func (s *Store) MemLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// epochLocked stamps a new pin or tombstone. Reading the epoch AFTER
// journaling the mutation is deliberately conservative: the record went
// into epoch E or earlier, the stamp is >= E, so the entry can dissolve
// late (harmless: one extra fold of pinning) but never early (which
// would let an eviction lose an unfolded record).
func (s *Store) epochLocked() uint64 {
	if j := s.attached(); j != nil {
		return j.Epoch()
	}
	return 0
}

// journalPutLocked journals a put and, in two-tier mode, pins it out of
// the LRU until a segment swap covers it. Caller holds the write lock.
func (s *Store) journalPutLocked(id ID, p Partition) {
	if j := s.attached(); j != nil {
		j.Put(id, p)
	}
	if s.tiered {
		k := entryKey(id, p)
		if el, ok := s.index[k]; ok {
			s.lru.Remove(el)
			delete(s.index, k)
		}
		s.pinned[k] = pin{id: id, epoch: s.epochLocked()}
	}
}

// arcDeadLocked reports whether bucket id lies on an arc dropped since
// the seal, masking the segment's records for it.
func (s *Store) arcDeadLocked(id ID) bool {
	for _, at := range s.arcTombs {
		if chord.BetweenRightIncl(at.from, at.to, id) {
			return true
		}
	}
	return false
}

// maskedLocked reports whether a segment record with this identity is
// dead in the overlay (tombstoned or on a dropped arc).
func (s *Store) maskedLocked(id ID, key string) bool {
	if _, dead := s.tombs[entryKeyStr(id, key)]; dead {
		return true
	}
	return s.arcDeadLocked(id)
}

// memHasIdentity reports whether bucket holds p's identity. Memory
// always wins over the segment: a mem copy is same-or-newer by the put
// admission rule.
func memHasIdentity(bucket []Partition, p Partition) bool {
	for _, q := range bucket {
		if q.Relation == p.Relation && q.Attribute == p.Attribute && q.Range == p.Range {
			return true
		}
	}
	return false
}

// diskGetLocked fetches one identity from the segment tier, nil-safe and
// mask-aware. Caller holds at least the read lock.
func (s *Store) diskGetLocked(id ID, key string) (Partition, bool) {
	if !s.tiered || s.segs == nil || s.maskedLocked(id, key) {
		return Partition{}, false
	}
	metMissDisk.Inc()
	p, ok, err := s.segs.Get(id, key)
	if err != nil {
		metDiskErrs.Inc()
		return Partition{}, false
	}
	if ok {
		metMissDiskHits.Inc()
	}
	return p, ok
}

// FindBest scans bucket id for the best match for query q on relation and
// attribute under measure, merging the memory and segment tiers when a
// disk tier is attached. ok is true only when some candidate scores
// above zero; a zero-score best candidate is still returned (with
// ok=false) so callers can tell an empty bucket from a dissimilar one.
// On bounded stores a positive match refreshes the entry's LRU position;
// a positive match served from the segment is admitted into memory.
// When the lookup consults the segment tier, a child span "seg.read" of
// sp (which may be nil) records what the disk walk contributed.
func (s *Store) FindBest(id ID, relation, attribute string, q rangeset.Range, measure Measure, sp *trace.Span) (Match, bool) {
	s.mu.RLock()
	bucket := s.buckets[id]
	best, found := rawBestOf(bucket, relation, attribute, q, measure)
	fromDisk := false
	if s.tiered && s.segs != nil && !s.arcDeadLocked(id) && s.segs.MayContain(id) {
		child := sp.Child("seg.read")
		metMissDisk.Inc()
		n := 0
		err := s.segs.Bucket(id, func(p Partition) error {
			if p.Relation != relation || p.Attribute != attribute {
				return nil
			}
			if _, dead := s.tombs[entryKeyStr(id, p.Key())]; dead {
				return nil
			}
			if memHasIdentity(bucket, p) {
				return nil // memory is same-or-newer; dedupe
			}
			n++
			m := Match{Partition: p, Score: measure.Score(q, p.Range)}
			if !found || better(m, best) {
				best, found, fromDisk = m, true, true
			}
			return nil
		})
		if err != nil {
			metDiskErrs.Inc()
			child.Eventf("error", "segment bucket %08x: %v", id, err)
		} else if n > 0 {
			metMissDiskHits.Inc()
		}
		child.Eventf("scan", "bucket %08x: %d disk candidate(s)", id, n)
		child.End()
	}
	bounded := s.cap > 0
	s.mu.RUnlock()

	ok := found && best.Score > 0
	if !ok {
		return best, false
	}
	if fromDisk {
		s.admit(id, best.Partition)
		return best, true
	}
	if bounded {
		// Positive match on a bounded store: upgrade to the write lock
		// only now, so concurrent misses (and concurrent hits' scans)
		// share the read lock. The entry may have been evicted between
		// the two locks — touch it only if the index still knows it.
		s.mu.Lock()
		if el, present := s.index[entryKey(id, best.Partition)]; present {
			s.lru.MoveToFront(el)
		}
		s.mu.Unlock()
	}
	return best, true
}

// admit caches a descriptor served from the segment tier in memory as an
// ordinary (unpinned, evictable) entry. Not journaled and not counted in
// Len: the segment still holds it, so evicting it again is free and
// crash recovery is unchanged.
func (s *Store) admit(id ID, p Partition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the write lock: a racing put may have admitted it, a
	// racing delete may have tombstoned it — never resurrect.
	if memHasIdentity(s.buckets[id], p) || s.maskedLocked(id, p.Key()) {
		return
	}
	if s.cap > 0 && s.count >= s.cap {
		s.evictLocked()
	}
	s.buckets[id] = append(s.buckets[id], p)
	s.touchLocked(id, p)
	s.count++
	metAdmits.Inc()
}

// FindBestAnywhere searches every bucket the peer owns (the Section 5.3
// peer-wide index), both tiers included. With few peers this sees most
// of the system's partitions; with many peers it degenerates to
// single-bucket search. The segment-tier pass runs under a "seg.read"
// child span of sp (which may be nil).
func (s *Store) FindBestAnywhere(relation, attribute string, q rangeset.Range, measure Measure, sp *trace.Span) (Match, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best Match
	found := false
	for _, bucket := range s.buckets {
		if m, ok := bestOf(bucket, relation, attribute, q, measure); ok && (!found || better(m, best)) {
			best, found = m, true
		}
	}
	if s.tiered && s.segs != nil {
		child := sp.Child("seg.read")
		metMissDisk.Inc()
		n := 0
		err := s.segs.Scan(func(id ID, p Partition) error {
			if p.Relation != relation || p.Attribute != attribute {
				return nil
			}
			if s.maskedLocked(id, p.Key()) || memHasIdentity(s.buckets[id], p) {
				return nil
			}
			m := Match{Partition: p, Score: measure.Score(q, p.Range)}
			if m.Score <= 0 {
				return nil
			}
			n++
			if !found || better(m, best) {
				best, found = m, true
			}
			return nil
		})
		if err != nil {
			metDiskErrs.Inc()
			child.Eventf("error", "segment scan: %v", err)
		} else if n > 0 {
			metMissDiskHits.Inc()
		}
		child.Eventf("scan", "full segment: %d disk candidate(s)", n)
		child.End()
	}
	return best, found
}
