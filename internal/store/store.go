package store

import (
	"bytes"
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"p2prange/internal/rangeset"
)

// ID is a bucket identifier in the 32-bit identifier space.
type ID = uint32

// Partition describes one cached horizontal partition: the tuples of
// Relation selected by Range over Attribute, materialized at the peer
// with transport address Holder. The descriptor is what travels through
// the DHT; tuple data is fetched from the holder afterwards.
//
// Version and Origin are replication metadata: the bucket owner that
// first admitted the descriptor stamps it with its own address and a
// locally monotonic version, and pushes the stamped copy to its
// successors. Anti-entropy compares versions per descriptor key, so a
// replica holding an older (or no) copy is repaired from the owner.
// Identity (Key) is unversioned — two copies of the same partition at
// different versions are the same descriptor, newest metadata wins.
type Partition struct {
	Relation  string
	Attribute string
	Range     rangeset.Range
	Holder    string
	Version   uint64
	Origin    string
}

// Key is the identity of a partition for deduplication:
// "relation.attribute[lo,hi]".
func (p Partition) Key() string {
	var b [96]byte
	return string(appendKey(b[:0], p))
}

// String formats the partition descriptor.
func (p Partition) String() string {
	return fmt.Sprintf("%s.%s%s@%s", p.Relation, p.Attribute, p.Range, p.Holder)
}

// Measure selects the bucket-level similarity used to pick the best match.
type Measure int

const (
	// MatchJaccard scores candidates by Jaccard set similarity, the
	// measure the hash family is built on.
	MatchJaccard Measure = iota
	// MatchContainment scores candidates by |Q ∩ R| / |Q|: how much of the
	// query the candidate answers. Not a metric, but the more useful match
	// measure once the bucket is located (Fig. 9).
	MatchContainment
)

// String names the measure as in the paper's figures.
func (m Measure) String() string {
	switch m {
	case MatchJaccard:
		return "Jaccard"
	case MatchContainment:
		return "Containment"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Score computes the measure for query q against candidate r.
func (m Measure) Score(q, r rangeset.Range) float64 {
	switch m {
	case MatchContainment:
		return q.Containment(r)
	default:
		return q.Jaccard(r)
	}
}

// Match is a scored candidate returned by a bucket search.
type Match struct {
	Partition Partition
	Score     float64
}

// Journal receives every mutation of a store, in apply order, for
// write-through persistence (internal/wal implements it). Put, Evict,
// DropArc and Epoch are invoked under the store's write lock, so they
// must only buffer — never block on IO — and must not call back into
// the store. Commit is the durability barrier, reached through
// Store.Commit on acknowledgment paths.
type Journal interface {
	// Put records a descriptor admission or in-place version upgrade.
	Put(id ID, p Partition)
	// Evict records a Delete.
	Evict(id ID, key string)
	// DropArc records ExtractArc removing every bucket on (from, to].
	DropArc(from, to ID)
	// Epoch returns the sequence of the journal file being appended to;
	// the two-tier overlay stamps its pins and tombstones with it to
	// know when a fold (SwapSegments) has absorbed them.
	Epoch() uint64
	// Commit blocks until every mutation recorded so far is durable.
	Commit() error
}

// Store holds the buckets owned by one peer. Safe for concurrent use.
// With a positive capacity, the store evicts its least-recently-matched
// descriptor to admit a new one (the paper assumes unbounded caches; the
// capacity ablation measures what bounding them costs).
//
// With a segment tier attached (SetSegments), the store becomes a
// bounded read-through cache over a sealed on-disk segment: reads merge
// both tiers (memory wins per identity), misses served from disk are
// admitted back into memory, and capacity evictions silently drop
// segment-backed entries — the overlay bookkeeping that makes this safe
// lives in tiered.go.
type Store struct {
	mu      sync.RWMutex
	buckets map[ID][]Partition
	count   int // descriptors resident in memory
	cap     int // 0 = unbounded

	// journal is nil when memory-only. Mutations read it under mu;
	// Commit reads it without, so acknowledgment paths take no store
	// lock.
	journal atomic.Pointer[Journal]

	// Recency tracking, maintained only on bounded stores: an intrusive
	// LRU list (most-recently-matched at the front) plus an index from
	// bucket-qualified key to list element, so both a touch and an
	// eviction are O(1) instead of a full descriptor scan.
	lru   *list.List
	index map[string]*list.Element

	// Two-tier state (tiered.go). total is the logical descriptor count
	// across both tiers; pinned/tombs/arcTombs track where memory
	// diverges from the sealed segment, stamped with the WAL epoch whose
	// fold absorbs the divergence.
	tiered   bool
	segs     SegmentSource
	total    int
	pinned   map[string]pin
	tombs    map[string]uint64
	arcTombs []arcTomb
}

// lruEntry locates one descriptor from its LRU list slot.
type lruEntry struct {
	id  ID
	key string // entryKey(id, p)
}

// New returns an empty, unbounded store.
func New() *Store {
	return &Store{buckets: make(map[ID][]Partition)}
}

// NewBounded returns a store that holds at most capacity descriptors,
// evicting the least-recently-matched one on overflow.
func NewBounded(capacity int) *Store {
	s := New()
	s.cap = capacity
	s.lru = list.New()
	s.index = make(map[string]*list.Element)
	return s
}

// Bounded reports whether the store has a capacity. A durable bounded
// store reads through to its sealed segment (wal.Open).
func (s *Store) Bounded() bool { return s.cap > 0 }

// SetJournal attaches (or, with nil, detaches) the store's write-ahead
// journal. wal.Open attaches its log once recovery replay has finished,
// so replayed mutations are not journaled again.
func (s *Store) SetJournal(j Journal) {
	s.mu.Lock()
	if j == nil {
		s.journal.Store(nil)
	} else {
		s.journal.Store(&j)
	}
	s.mu.Unlock()
}

// attached returns the journal, nil when memory-only.
func (s *Store) attached() Journal {
	if j := s.journal.Load(); j != nil {
		return *j
	}
	return nil
}

// Commit is the durability barrier of an acknowledgment path: it
// returns once every mutation so far is durable. A non-nil error means
// durability failed and the write must not be acknowledged. A
// memory-only store returns nil at once.
func (s *Store) Commit() error {
	if j := s.attached(); j != nil {
		return j.Commit()
	}
	return nil
}

// entryKey identifies one descriptor within one bucket for LRU tracking:
// the bucket as eight hex digits, a slash, then the partition's Key.
func entryKey(id ID, p Partition) string {
	var b [128]byte
	return string(appendKey(append(appendHex(b[:0], id), '/'), p))
}

// entryKeyStr is entryKey from an already-built identity key.
func entryKeyStr(id ID, key string) string {
	var b [128]byte
	return string(append(append(appendHex(b[:0], id), '/'), key...))
}

// appendHex appends id as eight lower-case hex digits.
func appendHex(dst []byte, id ID) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[id>>shift&0xf])
	}
	return dst
}

// Put stores the partition descriptor in bucket id. Exact duplicates
// (same relation, attribute, and range) are ignored; the first holder
// wins, as in the paper's protocol where only missing partitions are
// cached. The one exception is replication metadata: a duplicate
// carrying a strictly higher Version replaces the stored copy in place,
// so anti-entropy can upgrade an unstamped or stale replica without
// changing the descriptor count. It reports whether the descriptor was
// newly stored. A bounded store at capacity evicts its
// least-recently-matched descriptor first.
func (s *Store) Put(id ID, p Partition) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.buckets[id] {
		if q.Relation == p.Relation && q.Attribute == p.Attribute && q.Range == p.Range {
			if p.Version > q.Version {
				s.buckets[id][i] = p
				// A version upgrade is a repair of a live descriptor:
				// refresh its recency so a freshly repaired hot replica is
				// not the next eviction victim (journalPutLocked pins it
				// instead on a tiered store — it is newer than the segment
				// copy now, so it must not be evicted before the next fold).
				s.touchLocked(id, p)
				s.journalPutLocked(id, p)
			}
			return false
		}
	}
	// Not in memory. On a tiered store the identity may still live in the
	// segment: a same-or-newer disk copy makes this put a duplicate, an
	// older one makes it an upgrade — either way the descriptor count is
	// unchanged. Only a descriptor absent from both tiers is new.
	upgrade := false
	if s.tiered && s.segs != nil && !s.maskedLocked(id, p.Key()) {
		metMissDisk.Inc()
		if q, ok, err := s.segs.Get(id, p.Key()); err != nil {
			metDiskErrs.Inc()
		} else if ok {
			metMissDiskHits.Inc()
			if p.Version <= q.Version {
				return false
			}
			upgrade = true
		}
	}
	if s.cap > 0 && s.count >= s.cap {
		s.evictLocked()
	}
	s.buckets[id] = append(s.buckets[id], p)
	s.touchLocked(id, p)
	s.count++
	s.journalPutLocked(id, p)
	if upgrade {
		return false
	}
	if s.tiered {
		s.total++
	}
	return true
}

// touchLocked moves the descriptor to the LRU front, inserting it if
// new. A no-op on unbounded stores, which track no recency. Caller holds
// the write lock.
func (s *Store) touchLocked(id ID, p Partition) {
	if s.cap == 0 {
		return
	}
	k := entryKey(id, p)
	if _, isPinned := s.pinned[k]; isPinned {
		return // pinned entries live outside the LRU (tiered.go)
	}
	if el, ok := s.index[k]; ok {
		s.lru.MoveToFront(el)
		return
	}
	s.index[k] = s.lru.PushFront(lruEntry{id: id, key: k})
}

// dropLocked removes the descriptor's LRU state, if tracked. Caller
// holds the write lock.
func (s *Store) dropLocked(id ID, p Partition) {
	if s.cap == 0 {
		return
	}
	k := entryKey(id, p)
	if el, ok := s.index[k]; ok {
		s.lru.Remove(el)
		delete(s.index, k)
	}
}

// evictLocked removes the least-recently-matched descriptor — the back
// of the LRU list, in O(bucket) rather than a scan of every descriptor.
// Caller holds the write lock.
func (s *Store) evictLocked() {
	el := s.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(lruEntry)
	s.lru.Remove(el)
	delete(s.index, e.key)
	bucket := s.buckets[e.id]
	for i, p := range bucket {
		if entryKey(e.id, p) == e.key {
			// Never journaled. A journaled bounded store is tiered
			// (wal.Open), and there every LRU entry is segment-backed by
			// construction (unfolded descriptors are pinned outside the
			// list), so dropping it from memory loses nothing.
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.buckets, e.id)
	} else {
		s.buckets[e.id] = bucket
	}
	s.count--
}

// Delete removes the descriptor with the given Key from bucket id,
// reporting whether it was present. It is the replay complement of the
// journal's Evict record, and is safe on descriptors the store no
// longer holds.
func (s *Store) Delete(id ID, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	bucket := s.buckets[id]
	for i, p := range bucket {
		if p.Key() != key {
			continue
		}
		s.dropLocked(id, p)
		if j := s.attached(); j != nil {
			j.Evict(id, key)
		}
		if s.tiered {
			// Mask the segment's copy (if any) until the fold applies the
			// evict record, and release the pin if it had one.
			k := entryKeyStr(id, key)
			delete(s.pinned, k)
			s.tombs[k] = s.epochLocked()
			s.total--
		}
		bucket = append(bucket[:i], bucket[i+1:]...)
		if len(bucket) == 0 {
			delete(s.buckets, id)
		} else {
			s.buckets[id] = bucket
		}
		s.count--
		return true
	}
	// Not resident — on a tiered store the identity may still live in the
	// segment; deleting it is a journaled evict plus a tombstone.
	if s.tiered && s.segs != nil && !s.maskedLocked(id, key) {
		metMissDisk.Inc()
		if _, ok, err := s.segs.Get(id, key); err != nil {
			metDiskErrs.Inc()
		} else if ok {
			metMissDiskHits.Inc()
			if j := s.attached(); j != nil {
				j.Evict(id, key)
			}
			s.tombs[entryKeyStr(id, key)] = s.epochLocked()
			s.total--
			return true
		}
	}
	return false
}

// better reports whether candidate m beats the current best: higher
// score, or — on an exact score tie — the lexicographically lowest
// partition key. The tie-break keeps replicated copies deterministic:
// different peers hold the same descriptors in different append orders
// (and FindBestAnywhere walks buckets in map order), so without it
// equally-scored candidates would resolve differently per replica and
// load-aware replica routing would return answer A or B depending on
// which copy served the probe.
func better(m, best Match) bool {
	if m.Score != best.Score {
		return m.Score > best.Score
	}
	return keyLess(m.Partition, best.Partition)
}

// keyLess reports a.Key() < b.Key() without formatting either key on the
// heap. The keys compare as text, so [10,20] sorts before [9,20]; a
// numeric comparison of the bounds would reorder ties.
func keyLess(a, b Partition) bool {
	if a.Relation == b.Relation && a.Attribute == b.Attribute {
		return rangeKeyLess(a.Range, b.Range)
	}
	var ab, bb [96]byte
	return bytes.Compare(appendKey(ab[:0], a), appendKey(bb[:0], b)) < 0
}

// rangeKeyLess is keyLess for two partitions of one relation and
// attribute: their keys share everything up to the range, so the ranges
// decide, compared as the same text "[lo,hi]" but without writing it.
// When one bound's digits are a prefix of the other's, the separator
// after the shorter one decides: ',' sorts before every digit, ']'
// after.
func rangeKeyLess(a, b rangeset.Range) bool {
	if c, prefix := decimalCmp(a.Lo, b.Lo); c != 0 {
		return c < 0
	} else if prefix != 0 {
		return prefix < 0
	}
	c, prefix := decimalCmp(a.Hi, b.Hi)
	if c != 0 {
		return c < 0
	}
	return prefix > 0
}

// pow10 holds 10^0 through 10^19, every power a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// decimalCmp compares the decimal texts of a and b (as strconv.FormatInt
// writes them) byte by byte. c is the sign of the first byte that
// differs. When none does, prefix is -1 if a's text is a proper prefix of
// b's, +1 if b's is of a's, and 0 if the texts are equal.
func decimalCmp(a, b int64) (c, prefix int) {
	if (a < 0) != (b < 0) {
		if a < 0 { // '-' sorts before every digit
			return -1, 0
		}
		return 1, 0
	}
	// Same sign, so the texts differ only in their magnitude digits.
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua, ub = -ua, -ub
	}
	na, nb := digits(ua), digits(ub)
	// Cut the longer number to the shorter one's length: the texts then
	// compare as those equal-length numbers, then by length.
	if na > nb {
		ua /= pow10[na-nb]
	} else {
		ub /= pow10[nb-na]
	}
	switch {
	case ua < ub:
		return -1, 0
	case ua > ub:
		return 1, 0
	case na < nb:
		return 0, -1
	case na > nb:
		return 0, 1
	}
	return 0, 0
}

// digits is the number of decimal digits of u.
func digits(u uint64) int {
	n := 1
	for n < len(pow10) && u >= pow10[n] {
		n++
	}
	return n
}

// appendKey appends p.Key() to dst.
func appendKey(dst []byte, p Partition) []byte {
	dst = append(dst, p.Relation...)
	dst = append(dst, '.')
	dst = append(dst, p.Attribute...)
	return p.Range.Append(dst)
}

func bestOf(bucket []Partition, relation, attribute string, q rangeset.Range, measure Measure) (Match, bool) {
	best, found := rawBestOf(bucket, relation, attribute, q, measure)
	return best, found && best.Score > 0
}

// rawBestOf is bestOf without the positive-score threshold, so tier
// merges can combine candidates first and apply the threshold once. It
// walks the bucket by index and copies only the winner into its Match;
// ties break as better does.
func rawBestOf(bucket []Partition, relation, attribute string, q rangeset.Range, measure Measure) (Match, bool) {
	best, bestScore := -1, 0.0
	for i := range bucket {
		p := &bucket[i]
		if p.Relation != relation || p.Attribute != attribute {
			continue
		}
		score := measure.Score(q, p.Range)
		if best < 0 || score > bestScore || score == bestScore && rangeKeyLess(p.Range, bucket[best].Range) {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return Match{}, false
	}
	return Match{Partition: bucket[best], Score: bestScore}, true
}

// Bucket returns a copy of the descriptors in bucket id, both tiers
// merged (memory wins per identity).
func (s *Store) Bucket(id ID) []Partition {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := append([]Partition(nil), s.buckets[id]...)
	if s.tiered && s.segs != nil && !s.arcDeadLocked(id) && s.segs.MayContain(id) {
		mem := s.buckets[id]
		err := s.segs.Bucket(id, func(p Partition) error {
			if _, dead := s.tombs[entryKeyStr(id, p.Key())]; dead {
				return nil
			}
			if memHasIdentity(mem, p) {
				return nil
			}
			out = append(out, p)
			return nil
		})
		if err != nil {
			metDiskErrs.Inc()
		}
	}
	return out
}

// Len returns the total number of stored descriptors across both tiers
// (the per-node load the paper plots in Fig. 11). MemLen reports how
// many of them are resident in memory.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tiered {
		return s.total
	}
	return s.count
}

// Buckets returns the number of non-empty buckets, both tiers merged.
func (s *Store) Buckets() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.tiered || s.segs == nil {
		return len(s.buckets)
	}
	return len(s.idSetLocked())
}

// IDs returns the bucket identifiers in ascending order, both tiers
// merged.
func (s *Store) IDs() []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := s.idSetLocked()
	ids := make([]ID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// idSetLocked collects the non-empty bucket ids across both tiers.
// Caller holds at least the read lock.
func (s *Store) idSetLocked() map[ID]struct{} {
	set := make(map[ID]struct{}, len(s.buckets))
	for id := range s.buckets {
		set[id] = struct{}{}
	}
	if s.tiered && s.segs != nil {
		err := s.segs.Scan(func(id ID, p Partition) error {
			if _, ok := set[id]; ok {
				return nil
			}
			if s.maskedLocked(id, p.Key()) {
				return nil
			}
			set[id] = struct{}{}
			return nil
		})
		if err != nil {
			metDiskErrs.Inc()
		}
	}
	return set
}

// ExtractArc removes and returns all buckets whose identifier lies on the
// arc (from, to] of the ring. It implements data handoff when ring
// ownership changes (a predecessor joins or this peer leaves).
func (s *Store) ExtractArc(from, to ID) map[ID][]Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ID][]Partition)
	for id, bucket := range s.buckets {
		if betweenRightIncl(from, to, id) {
			out[id] = bucket
			s.count -= len(bucket)
			delete(s.buckets, id)
			for _, p := range bucket {
				s.dropLocked(id, p)
				if s.tiered {
					delete(s.pinned, entryKey(id, p))
					s.total--
				}
			}
		}
	}
	// Tiered: the segment holds descriptors on the arc that were never
	// resident — hand those off too, and mask the whole arc until the
	// fold applies the drop record. Resident copies extracted above
	// dedupe the disk walk (memory is same-or-newer).
	if s.tiered && s.segs != nil {
		err := s.segs.ScanArc(from, to, func(id ID, p Partition) error {
			if s.maskedLocked(id, p.Key()) || memHasIdentity(out[id], p) {
				return nil
			}
			out[id] = append(out[id], p)
			s.total--
			return nil
		})
		if err != nil {
			metDiskErrs.Inc()
		}
	}
	// One arc record covers every removed bucket; an empty extraction
	// journals nothing.
	if len(out) > 0 {
		if j := s.attached(); j != nil {
			j.DropArc(from, to)
		}
		if s.tiered {
			s.arcTombs = append(s.arcTombs, arcTomb{from: from, to: to, epoch: s.epochLocked()})
		}
	}
	return out
}

// Absorb merges buckets produced by ExtractArc into this store.
func (s *Store) Absorb(buckets map[ID][]Partition) {
	for id, bucket := range buckets {
		for _, p := range bucket {
			s.Put(id, p)
		}
	}
}

// Has reports whether bucket id already holds a descriptor with p's
// identity (relation, attribute, range), at any version, in either tier.
func (s *Store) Has(id ID, p Partition) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if memHasIdentity(s.buckets[id], p) {
		return true
	}
	_, ok := s.diskGetLocked(id, p.Key())
	return ok
}

// Get returns the descriptor in bucket id with the given Key, consulting
// the segment tier on a memory miss.
func (s *Store) Get(id ID, key string) (Partition, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.buckets[id] {
		if p.Key() == key {
			return p, true
		}
	}
	return s.diskGetLocked(id, key)
}

// Digest is a version vector over a set of buckets: descriptor key ->
// version, per bucket. Anti-entropy ships digests instead of descriptors
// so only missing or stale copies travel.
type Digest = map[ID]map[string]uint64

// Digest summarizes every bucket accepted by keep (nil keeps all) as
// descriptor-key -> version maps.
func (s *Store) Digest(keep func(ID) bool) Digest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(Digest)
	for id, bucket := range s.buckets {
		if keep != nil && !keep(id) {
			continue
		}
		vv := make(map[string]uint64, len(bucket))
		for _, p := range bucket {
			vv[p.Key()] = p.Version
		}
		out[id] = vv
	}
	if s.tiered && s.segs != nil {
		err := s.segs.Scan(func(id ID, p Partition) error {
			if keep != nil && !keep(id) {
				return nil
			}
			key := p.Key()
			if s.maskedLocked(id, key) {
				return nil
			}
			vv := out[id]
			if _, resident := vv[key]; resident {
				return nil // memory is same-or-newer
			}
			if vv == nil {
				vv = make(map[string]uint64)
				out[id] = vv
			}
			vv[key] = p.Version
			return nil
		})
		if err != nil {
			metDiskErrs.Inc()
		}
	}
	return out
}

// MissingFrom compares an offered digest against local state and returns
// the keys this store lacks — absent entirely, or held at a strictly
// lower version. The sender repairs the returned keys by pushing full
// descriptors.
func (s *Store) MissingFrom(offered Digest) map[ID][]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var missing map[ID][]string
	for id, vv := range offered {
		local := make(map[string]uint64, len(s.buckets[id]))
		for _, p := range s.buckets[id] {
			local[p.Key()] = p.Version
		}
		for key, ver := range vv {
			have, ok := local[key]
			if ok && have >= ver {
				continue
			}
			if !ok {
				// Not resident; the segment may hold a current copy (a
				// deleted identity stays missing — its tombstone masks the
				// disk copy, exactly as if it were absent).
				if q, onDisk := s.diskGetLocked(id, key); onDisk && q.Version >= ver {
					continue
				}
			}
			if missing == nil {
				missing = make(map[ID][]string)
			}
			missing[id] = append(missing[id], key)
		}
	}
	return missing
}

// betweenRightIncl mirrors chord.BetweenRightIncl without importing chord.
func betweenRightIncl(a, b, x ID) bool {
	if x == b {
		return true
	}
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}
