package replica

import (
	"sync"
	"sync/atomic"

	"p2prange/internal/chord"
	"p2prange/internal/metrics"
	"p2prange/internal/obs"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// Defaults for Config's zero values.
const (
	// DefaultR is the replica-set size: each descriptor lives on its
	// bucket owner plus R-1 successors.
	DefaultR = 3
	// DefaultHotThreshold is the decayed per-bucket hit count at which a
	// bucket is promoted to the wide (2*R) replica set.
	DefaultHotThreshold = 64
)

// The Default-registry replica.* family: replication, promotion, repair,
// and selection counters aggregated across every peer in the process.
var (
	metPushed     = metrics.Default.Counter("replica.pushed")
	metPushErrors = metrics.Default.Counter("replica.push_errors")
	metPromotions = metrics.Default.Counter("replica.promotions")
	metSyncRounds = metrics.Default.Counter("replica.sync_rounds")
	metRepaired   = metrics.Default.Counter("replica.repaired")
	metSyncErrors = metrics.Default.Counter("replica.sync_errors")
	metLoadProbes = metrics.Default.Counter("replica.load_probes")
	metSelections = metrics.Default.Counter("replica.selections")
	metDiverted   = metrics.Default.Counter("replica.diverted")
	metFallbacks  = metrics.Default.Counter("replica.fallbacks")
	metShipSynced = metrics.Default.Counter("replica.ship_synced")
	metShipFellBk = metrics.Default.Counter("replica.ship_fallbacks")
)

// Wire messages of the replica protocol. The peer layer dispatches them
// alongside its partition protocol.
type (
	// SyncReq carries an owner's version vector for the buckets a
	// replica should hold; the replica answers with what it lacks.
	SyncReq struct {
		Digest store.Digest
	}
	// SyncResp lists the descriptor keys (per bucket) that are missing
	// or stale at the replica.
	SyncResp struct {
		Missing map[uint32][]string
	}
	// LoadReq asks a peer for its current query-load gauge and, for
	// each of the buckets IDs it owns, the bucket's replica fan-out (R,
	// or 2*R when the bucket is hot). With no IDs it asks for the gauge
	// only.
	LoadReq struct {
		IDs []uint32
	}
	// LoadResp reports the gauge, the fan-out of each requested bucket
	// (Fanouts[i] for IDs[i]) and, when any bucket was requested, the
	// answering owner's successor list: the replica set the selection
	// ranks.
	LoadResp struct {
		Load       int64
		Fanouts    []int
		Successors []chord.Ref
	}
)

func init() {
	for _, v := range []any{SyncReq{}, SyncResp{}, LoadReq{}, LoadResp{}} {
		transport.RegisterType(v)
	}
}

// Config parameterizes a Manager. The zero value enables nothing; R must
// be at least 2 for replication to place any copies.
type Config struct {
	// R is the replica-set size per descriptor: the bucket owner plus
	// R-1 successors (default DefaultR). A hot bucket gets 2*R copies.
	R int
	// HotThreshold is the decayed hit count promoting a bucket to 2*R
	// copies (default DefaultHotThreshold).
	HotThreshold uint64
}

func (c Config) withDefaults() Config {
	if c.R <= 0 {
		c.R = DefaultR
	}
	if c.HotThreshold == 0 {
		c.HotThreshold = DefaultHotThreshold
	}
	return c
}

// Deps are the closures a Manager uses to reach the rest of the peer: it
// owns no transport or routing state of its own.
type Deps struct {
	// Successors returns up to k distinct ring successors of this peer
	// (the placement set).
	Successors func(k int) []chord.Ref
	// Owns reports whether this peer currently owns bucket id; only
	// owned buckets are offered during anti-entropy, so copies do not
	// cascade replica-to-replica around the ring.
	Owns func(id uint32) bool
	// Suspect excludes a peer that failed an RPC from routing.
	Suspect func(id chord.ID)
	// Push writes one descriptor copy to a replica.
	Push func(to chord.Ref, id uint32, p store.Partition) error
	// Call issues a replica-protocol request (SyncReq, LoadReq).
	Call func(to chord.Ref, req any) (any, error)
}

// Shipper is the log-shipping fast path to full-replica successors.
type Shipper struct {
	// Ship pushes succ the WAL records written since the last round and
	// reports (records shipped, converged). ok=false demotes succ to a
	// digest exchange this round — ship is the common case, digests the
	// repair of last resort.
	Ship func(succ chord.Ref) (pushed int, ok bool)
	// Retain receives, after every pass, the addresses Ship was offered;
	// whatever it keeps for any other receiver (a WAL retention pin) must
	// go, since that receiver left the replica set.
	Retain func(addrs []string)
}

// Manager runs one peer's side of the replication subsystem: stamping
// and pushing copies on publish, promoting hot buckets, answering load
// probes, and repairing replicas by anti-entropy. All methods are safe
// for concurrent use.
type Manager struct {
	cfg     Config
	self    chord.Ref
	st      *store.Store
	deps    Deps
	tracker *Tracker
	ver     atomic.Uint64

	shipMu sync.RWMutex
	ship   *Shipper
}

// SetShip installs the log-shipping sync path. It is attached after
// construction because the WAL (the shipped log) opens only once the
// peer's store has been recovered.
func (m *Manager) SetShip(s Shipper) {
	m.shipMu.Lock()
	m.ship = &s
	m.shipMu.Unlock()
}

func (m *Manager) shipper() *Shipper {
	m.shipMu.RLock()
	defer m.shipMu.RUnlock()
	return m.ship
}

// NewManager builds a manager for the peer at self over its store.
func NewManager(self chord.Ref, st *store.Store, cfg Config, deps Deps) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:     cfg,
		self:    self,
		st:      st,
		deps:    deps,
		tracker: NewTracker(cfg.HotThreshold),
	}
}

// Stamp tags a descriptor this peer is about to admit as bucket owner:
// a locally monotonic version and this peer's address as origin. Call it
// only for descriptors not already stored (re-stamping a duplicate would
// make every re-publish look newer than the stored copy).
func (m *Manager) Stamp(p *store.Partition) {
	p.Version = m.ver.Add(1)
	p.Origin = m.self.Addr
}

// Fanout returns the replica-set size of bucket id: 2*R while the
// bucket is hot, R otherwise.
func (m *Manager) Fanout(id uint32) int {
	if m.tracker.Hot(id) {
		return m.rHot()
	}
	return m.cfg.R
}

// rHot is the replica-set size of a hot bucket.
func (m *Manager) rHot() int { return 2 * m.cfg.R }

// Load returns this peer's query-load gauge (decayed recent probe hits).
func (m *Manager) Load() int64 { return m.tracker.Load() }

// HandleLoad answers a LoadReq with the gauge and the requested
// fan-outs; the peer layer adds its successor list.
func (m *Manager) HandleLoad(r LoadReq) LoadResp {
	resp := LoadResp{Load: m.tracker.Load(), Fanouts: make([]int, len(r.IDs))}
	for i, id := range r.IDs {
		resp.Fanouts[i] = m.Fanout(id)
	}
	return resp
}

// Replicate pushes a freshly admitted descriptor to the first Fanout-1
// successors. Pushes are best-effort — an unreachable successor is
// counted and skipped; the anti-entropy loop re-creates the copy once
// the node recovers or the list repairs. Returns the copies written.
func (m *Manager) Replicate(id uint32, p store.Partition) int {
	return m.push(id, p, m.Fanout(id)-1)
}

func (m *Manager) push(id uint32, p store.Partition, copies int) int {
	if copies <= 0 {
		return 0
	}
	sent := 0
	for _, succ := range m.deps.Successors(copies) {
		if err := m.deps.Push(succ, id, p); err != nil {
			metPushErrors.Inc()
			continue
		}
		metPushed.Inc()
		sent++
	}
	return sent
}

// Hit records one probe served for bucket id. When the hit promotes the
// bucket to hot, its descriptors are immediately re-replicated at the
// wide fan-out so the extra copies exist before the next burst arrives.
// Only the bucket's owner pushes — a replica that serves diverted probes
// tracks its own heat but must not scatter copies to its successors,
// which are not the bucket's replica set.
func (m *Manager) Hit(id uint32) {
	if !m.tracker.Hit(id) {
		return
	}
	metPromotions.Inc()
	obs.Events.Emitf(obs.SevInfo, "replica", "%s promoted hot bucket %08x to fan-out %d", m.self.Addr, id, m.rHot())
	if m.deps.Owns != nil && !m.deps.Owns(id) {
		return
	}
	for _, p := range m.st.Bucket(id) {
		m.push(id, p, m.rHot()-1)
	}
}

// SyncStats summarizes one anti-entropy round.
type SyncStats struct {
	// Peers is the number of successors that answered a digest exchange.
	Peers int
	// Repaired is the number of descriptor copies re-created.
	Repaired int
	// Errors counts unreachable successors and failed pushes.
	Errors int
	// Shipped is the number of WAL records pushed by log shipping in
	// place of digest rows.
	Shipped int
	// ShipFallbacks counts successors demoted to a digest exchange this
	// round (fresh pairing, receiver restart, or retention outran the
	// cursor).
	ShipFallbacks int
}

// Sync runs one anti-entropy round. With a ship path installed
// (SetShip), each full-replica successor is synchronized by pushing the
// WAL records written since the last round; the digest exchange below
// runs only when shipping cannot prove convergence. Without one — or
// for hot-only successors past depth R-1 — it is the classic exchange:
// send the version vector of the owned buckets that successor
// should replicate (successor i holds copies of buckets with fan-out
// > i+1), and push full descriptors for whatever it reports missing.
// Sync also decays the popularity tracker, so the hot set and the load
// gauge both measure the window since the last repair period. A pass
// that ships tells the Shipper which receivers it shipped to, so one
// that left the first R-1 successors stops pinning WAL history.
func (m *Manager) Sync() SyncStats {
	metSyncRounds.Inc()
	m.tracker.Decay()
	ship := m.shipper()
	var stats SyncStats
	var shipped []string
	for i, succ := range m.deps.Successors(m.rHot() - 1) {
		depth := i + 1 // succ holds copies of buckets with Fanout > depth
		if ship != nil && depth < m.cfg.R {
			// Full-replica successor (holds every owned bucket, since
			// Fanout >= R > depth): ship the WAL delta instead of
			// walking digests — O(records written) rather than
			// O(store). Hot-only successors below keep the digest
			// path; their bucket set shifts with the hot set, which
			// the log does not encode.
			shipped = append(shipped, succ.Addr)
			pushed, ok := ship.Ship(succ)
			stats.Shipped += pushed
			if ok {
				metShipSynced.Inc()
				stats.Peers++
				continue
			}
			metShipFellBk.Inc()
			stats.ShipFallbacks++
		}
		digest := m.st.Digest(func(id store.ID) bool {
			return m.deps.Owns(id) && m.Fanout(id) > depth
		})
		if len(digest) == 0 {
			continue
		}
		resp, err := m.deps.Call(succ, SyncReq{Digest: digest})
		if err != nil {
			metSyncErrors.Inc()
			stats.Errors++
			if transport.Retryable(err) {
				m.deps.Suspect(succ.ID)
			}
			continue
		}
		sr, ok := resp.(SyncResp)
		if !ok {
			metSyncErrors.Inc()
			stats.Errors++
			continue
		}
		stats.Peers++
	repair:
		for id, keys := range sr.Missing {
			for _, key := range keys {
				p, held := m.st.Get(id, key)
				if !held {
					continue // evicted since the digest was built
				}
				if err := m.deps.Push(succ, id, p); err != nil {
					metPushErrors.Inc()
					stats.Errors++
					if transport.Retryable(err) {
						// The successor died after answering: every
						// further push would run the full retry backoff
						// for nothing. The next round repairs it.
						m.deps.Suspect(succ.ID)
						break repair
					}
					continue
				}
				metPushed.Inc()
				metRepaired.Inc()
				stats.Repaired++
			}
		}
	}
	if ship != nil {
		ship.Retain(shipped)
	}
	// One journal line per round that actually fixed something: repair is
	// the signal that copies were lost (a crash, an eviction, a missed
	// push), not routine convergence.
	if stats.Repaired > 0 {
		obs.Events.Emitf(obs.SevWarn, "replica", "%s anti-entropy repaired %d cop(ies) across %d successor(s)", m.self.Addr, stats.Repaired, stats.Peers)
	}
	return stats
}
