package p2prange

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"p2prange/internal/chord"
	"p2prange/internal/flight"
	"p2prange/internal/metrics"
	"p2prange/internal/obs"
	"p2prange/internal/peer"
	"p2prange/internal/store"
	"p2prange/internal/transport"
	"p2prange/internal/wal"
)

// LiveConfig configures a real TCP peer. All peers of one ring must use
// the same Family, K, L, and SchemeSeed, or their identifiers will not
// line up; SchemeSeed is therefore an explicit, shared parameter.
type LiveConfig struct {
	// Family, K, L parameterize the shared LSH scheme (defaults:
	// ApproxMinWise, 20, 5).
	Family Family
	K, L   int
	// SchemeSeed derives the shared key material (default 1).
	SchemeSeed int64
	// Measure is the bucket match measure (zero value MatchJaccard).
	Measure Measure
	// Schema enables partition data serving.
	Schema *Schema
	// Replicas pushes each stored descriptor to that many ring successors.
	// Setting it enables the replica subsystem: versioned copies, periodic
	// anti-entropy repair (cadence via Stabilize.RepairEvery), and
	// hot-bucket promotion.
	Replicas int
	// LoadAware routes each bucket probe to the least-loaded live replica
	// instead of always the owner. It needs Replicas > 0: StartPeer
	// refuses it without.
	LoadAware bool
	// Stabilize controls the chord maintenance cadence; zero values use
	// chord defaults.
	Stabilize chord.MaintainerConfig
	// Retry controls transport-level retries. Zero values mean 3 attempts
	// with 25ms base backoff; Attempts 1 turns retries off.
	Retry transport.RetryConfig
	// Fault, when non-nil, injects deterministic faults (drops, delays,
	// outages) between this peer and the network — for resilience testing
	// on real TCP clusters.
	Fault *transport.FaultConfig
	// SigCache bounds this peer's signature cache (the identifiers of
	// recently hashed ranges, reused across lookups); 0 disables it.
	// Purely local, so peers of one ring may differ.
	SigCache int
	// Codec names the TCP wire protocol. There is one, so the only
	// accepted values are "" and transport.CodecBinary; StartPeer
	// rejects anything else with ErrUnknownCodec.
	//
	// Deprecated: leave it empty.
	Codec string
	// DataDir, when set, makes the partition store durable: a write-ahead
	// log in that directory records every mutation, acknowledged writes
	// are fsynced before the ack, and a restart with the same directory
	// replays the store before rejoining the ring. Empty keeps the store
	// memory-only (the paper's model). One live peer per directory.
	DataDir string
	// Fsync selects the commit barrier when DataDir is set: "always"
	// (default — fsync before every acknowledgment, group-committed) or
	// "off" (OS page cache decides; survives process crashes only).
	Fsync string
	// CompactEvery folds the WAL into a segment file after that many
	// records (default wal.DefaultCompactEvery); negative disables
	// automatic compaction. Effective only with DataDir.
	CompactEvery int
	// Follow subscribes this peer to another peer's WAL (log shipping):
	// it seeds from the owner's sealed segment when too far behind, then
	// tails the acked record stream, applying each record through the
	// same journaled path recovery uses — a shipped store is
	// byte-identical to a locally recovered one. The value is the
	// owner's transport address. Usually combined with DataDir so the
	// copy is itself durable. See docs/DURABILITY.md.
	Follow string
	// ShipRetain bounds the extra WAL bytes kept past a fold only to let
	// follower cursors keep tailing (0: default 64MiB; negative retains
	// nothing — every fold forces followers onto the snapshot path).
	// Effective only with DataDir.
	ShipRetain int64
	// BackupTo mirrors every sealed segment into that directory — once
	// at startup and after each fold — using the same chunked,
	// CRC-verified reader the shipping protocol streams. Restore with
	// `walctl restore`. Effective only with DataDir.
	BackupTo string
	// MemLimit bounds the descriptor store to that many resident
	// descriptors. With DataDir set it also turns on segment
	// read-through: the in-memory store becomes a cache over the sealed
	// segment, evicted descriptors are re-read from disk on demand, and
	// the peer serves working sets larger than MemLimit without losing
	// answers (see docs/STORAGE.md). Without DataDir it is a plain LRU
	// cap — overflowing descriptors are dropped, the paper's cache
	// model. 0 means unbounded.
	MemLimit int
	// SlowThreshold is the flight recorder's slow-query cutoff: a
	// finished query at or over it is pinned in the slow ring (default
	// flight.DefaultSlowThreshold, 25ms). Effective unless FlightOff.
	SlowThreshold time.Duration
	// FlightOff disables the always-on flight recorder. Queries then run
	// on the nil-span fast path with zero recording overhead, and the
	// /debug/slow and /debug/flight surfaces serve nothing.
	FlightOff bool
	// EventsDir overrides where the durable cluster event journal
	// (events.log) lives; empty uses DataDir. When both are empty the
	// journal is memory-only — the bounded in-process ring still serves
	// /debug/events, it just does not survive a restart.
	EventsDir string
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// LivePeer is one real peer: a TCP server, a chord node with background
// stabilization, and the partition store/protocol.
type LivePeer struct {
	node       node // the assembled peer (peer.Host) and its SQL state
	caller     *transport.TCPCaller
	maintainer *chord.Maintainer
	backups    sync.WaitGroup // in-flight OnSeal mirrors; Close waits

	events       *obs.EventLog // nil when the journal is memory-only
	eventsDetach func()        // unhooks the durable sink on Close
}

// ErrUnknownCodec is StartPeer's error for a LiveConfig.Codec other than
// "" or transport.CodecBinary.
var ErrUnknownCodec = errors.New("p2prange: unknown LiveConfig.Codec (the only wire protocol is binary)")

// StartPeer launches a live peer listening on listenAddr (host:port; the
// OS picks a port for ":0"). If bootstrap is non-empty the peer joins the
// ring that peer belongs to; otherwise it starts a new one-node ring.
//
// The peer is assembled like every other (peer.Boot, then ServeTCP and
// Join) over TCP under fault and retry callers. What is per process
// stays here: the event journal, the chord maintainer and the backup
// mirror.
func StartPeer(listenAddr, bootstrap string, cfg LiveConfig) (*LivePeer, error) {
	if cfg.Codec != "" && cfg.Codec != transport.CodecBinary {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCodec, cfg.Codec)
	}
	scheme, err := compiledScheme(cfg.Family, cfg.K, cfg.L, cfg.SchemeSeed)
	if err != nil {
		return nil, err
	}
	hc := peer.HostConfig{
		Peer: peer.Config{
			Scheme:        scheme,
			Measure:       cfg.Measure,
			Schema:        cfg.Schema,
			Replicas:      cfg.Replicas,
			LoadAware:     cfg.LoadAware,
			SigCache:      cfg.SigCache,
			CacheCapacity: cfg.MemLimit,
		},
		Follow: cfg.Follow,
	}
	if !cfg.FlightOff {
		// The flight recorder is on by default: tail-based keeps are the
		// point — no flag should be needed to have captured the slow query
		// that already happened.
		hc.Flight = &flight.Config{SlowThreshold: cfg.SlowThreshold}
	}
	if cfg.DataDir != "" {
		mode, err := wal.ParseFsyncMode(orDefault(cfg.Fsync, "always"))
		if err != nil {
			return nil, err
		}
		hc.WAL = wal.Options{Dir: cfg.DataDir, Fsync: mode, CompactEvery: cfg.CompactEvery, ShipRetain: cfg.ShipRetain}
	}

	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("p2prange: listen %s: %w", listenAddr, err)
	}
	hc.Addr = ln.Addr().String()
	lp := &LivePeer{caller: transport.NewTCPCaller()}
	hc.Caller = lp.caller
	if cfg.Fault != nil {
		hc.Caller = transport.NewFaultCaller(hc.Caller, *cfg.Fault)
	}
	rc := cfg.Retry
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 25 * time.Millisecond
	}
	if rc.Seed == 0 {
		rc.Seed = int64(chord.HashAddr(hc.Addr))
	}
	hc.Caller = transport.NewRetryCaller(hc.Caller, rc)
	if cfg.BackupTo != "" {
		var backupMu sync.Mutex
		hc.WAL.OnSeal = func(uint64) {
			// Compaction calls OnSeal inline; mirror in the background so
			// a slow backup disk never stalls the append path.
			lp.backups.Add(1)
			go func() {
				defer lp.backups.Done()
				backupMu.Lock()
				defer backupMu.Unlock()
				lp.backup(cfg.BackupTo)
			}()
		}
	}

	// The event journal opens before the node boots, so recovery's
	// events land in it.
	if err := lp.openEvents(orDefault(cfg.EventsDir, cfg.DataDir)); err != nil {
		ln.Close()
		lp.caller.Close()
		return nil, err
	}
	h, err := peer.Boot(hc)
	if err != nil {
		ln.Close()
		lp.caller.Close()
		lp.closeEvents()
		return nil, err
	}
	lp.node = node{Host: h, schema: cfg.Schema, base: newBases()}
	h.ServeTCP(ln)
	if bootstrap != "" {
		if err := h.Node().Join(bootstrap); err != nil {
			lp.Close()
			return nil, err
		}
	}
	mcfg := cfg.Stabilize
	if cfg.Replicas > 0 && mcfg.Repair == nil {
		// Anti-entropy rides the maintenance loop: each round re-creates
		// replica copies lost to churn since the last one.
		mcfg.Repair = func() { h.RepairReplicas() }
	}
	lp.maintainer = chord.StartMaintainer(h.Node(), mcfg)
	if h.Follower != nil {
		h.Follower.Run()
	}
	if h.Log != nil && cfg.BackupTo != "" {
		// Startup backup: whatever segment recovery booted from is
		// mirrored even if the process never folds again.
		lp.backup(cfg.BackupTo)
	}
	return lp, nil
}

// openEvents opens the cluster event journal: every peer keeps the
// bounded in-process ring; a peer with a directory also makes it durable
// (events.log, same framing discipline as the WAL), preloading the
// previous boots' tail so /debug/events shows what happened before the
// restart.
func (lp *LivePeer) openEvents(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	elog, past, err := obs.OpenEventLog(filepath.Join(dir, "events.log"))
	if err != nil {
		return err
	}
	obs.Events.Preload(past)
	lp.events = elog
	lp.eventsDetach = obs.Events.AddSink(elog.Append)
	return nil
}

// closeEvents unhooks and closes the durable event sink. It unhooks
// before the log closes so a concurrent Emitf cannot race an append
// against the closed file.
func (lp *LivePeer) closeEvents() {
	if lp.eventsDetach != nil {
		lp.eventsDetach()
	}
	if lp.events != nil {
		lp.events.Close()
	}
}

// backup mirrors the newest sealed segment into dir (LiveConfig.BackupTo).
func (lp *LivePeer) backup(dir string) {
	// The node is set before serving starts; OnSeal fires only after.
	if lp.node.Host == nil || lp.node.Log == nil {
		return
	}
	if seq, n, err := lp.node.Log.BackupSegment(dir); err != nil {
		log.Printf("p2prange: %s: segment backup to %s: %v", lp.Addr(), dir, err)
	} else if n > 0 {
		log.Printf("p2prange: %s: backed up segment %d (%d bytes) to %s", lp.Addr(), seq, n, dir)
	}
}

// Addr returns the peer's listen address (how other peers reach it).
func (lp *LivePeer) Addr() string { return lp.node.Addr() }

// Ref returns the peer's chord identity.
func (lp *LivePeer) Ref() chord.Ref { return lp.node.Ref() }

// Lookup runs the approximate range lookup from this peer. Routing and
// transport failures (e.g. a peer departed and fingers are stale) are
// retried with backoff while the stabilization protocol repairs the
// ring; a range the protocol cannot hash (peer.ErrBadRange) fails at
// once.
func (lp *LivePeer) Lookup(rel, attribute string, q Range, cache bool) (Match, bool, error) {
	var lastErr error
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		m, found, _, err := lp.node.lookup(rel, attribute, q, cache, false)
		if err == nil {
			return m, found, nil
		}
		if errors.Is(err, peer.ErrBadRange) {
			return Match{}, false, err
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
	return Match{}, false, lastErr
}

// LookupOnce runs a single approximate range lookup with no
// stabilization-retry loop: a routing failure surfaces immediately.
// Load generators use it so each attempt costs exactly one protocol
// run and failures land in the error budget instead of a backoff sleep.
func (lp *LivePeer) LookupOnce(rel, attribute string, q Range, cache bool) (Match, bool, error) {
	m, found, _, err := lp.node.lookup(rel, attribute, q, cache, false)
	return m, found, err
}

// Publish stores a partition descriptor held by this peer under its l
// identifiers. Like lookups, each publish runs under the flight
// recorder, so a slow or failed publish leaves a retained trace.
func (lp *LivePeer) Publish(info PartitionInfo) error { return lp.node.publish(info) }

// AddPartition materializes partition data locally so other peers can
// fetch it; call Publish with its descriptor to make it discoverable.
func (lp *LivePeer) AddPartition(rel *Relation, attribute string, rg Range) error {
	part, err := rel.Partition(attribute, rg)
	if err != nil {
		return err
	}
	lp.node.AddPartition(part)
	return nil
}

// Fetch retrieves the tuples of a matched partition from its holder.
func (lp *LivePeer) Fetch(m Match) (*Relation, error) { return lp.node.FetchData(m, nil) }

// StoredPartitions reports how many descriptors this peer's buckets hold.
func (lp *LivePeer) StoredPartitions() int { return lp.node.Store().Len() }

// Successor exposes the chord successor for health checks.
func (lp *LivePeer) Successor() chord.Ref { return lp.node.Node().Successor() }

// SigStats snapshots the peer's signature-cache counters (hits, misses,
// evictions).
func (lp *LivePeer) SigStats() metrics.SigSnapshot { return lp.node.SigStats() }

// Stable reports whether the peer's ring links look settled: predecessor
// known and successor set. A self-successor with no predecessor is a
// singleton ring — the node IS the whole ring and answers lookups, so it
// counts as stable (the stabilize protocol never self-notifies, so a
// lone bootstrap peer would otherwise stay "not ready" forever).
// peerd's /healthz readiness gates on it.
func (lp *LivePeer) Stable() bool {
	succ := lp.node.Node().Successor()
	if succ.IsZero() {
		return false
	}
	if succ.ID == lp.Ref().ID {
		return true
	}
	_, hasPred := lp.node.Node().Predecessor()
	return hasPred
}

// WaitStable blocks until the peer's successor and predecessor links look
// settled (predecessor known and successor reachable) or the timeout
// elapses. Convenience for tests and demos.
func (lp *LivePeer) WaitStable(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if lp.Stable() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// Status assembles the peer's self-description for the cluster
// observability plane: the node's own status (identity, ring links,
// load, WAL, flight recorder, shipping), readiness, the process-local
// metrics snapshot and the event journal. peerd serves it as JSON at
// /status; rangetop polls it across the cluster.
func (lp *LivePeer) Status() obs.NodeStatus {
	st := lp.node.Status()
	st.Stable = lp.Stable()
	st.Metrics = metrics.Default.Snapshot()
	total, warns, errs := obs.Events.Counts()
	st.Events = &obs.EventsStatus{
		Total:   total,
		Warns:   warns,
		Errors:  errs,
		Durable: lp.events != nil,
		// Enough lines for rangetop's events pane without bloating every
		// /status poll; /debug/events serves the full ring.
		Recent: obs.Events.Recent(8),
	}
	return st
}

// Connect starts an ephemeral query peer: it listens on an OS-assigned
// local port, joins the ring via bootstrap, and waits for its links to
// settle. Use it for interactive clients (rangeql -connect) that want to
// issue lookups and SQL against a running cluster; Leave (or Close) when
// done. The configuration must carry the ring's shared scheme parameters.
func Connect(bootstrap string, cfg LiveConfig) (*LivePeer, error) {
	if bootstrap == "" {
		return nil, errors.New("p2prange: Connect requires a bootstrap address")
	}
	lp, err := StartPeer("127.0.0.1:0", bootstrap, cfg)
	if err != nil {
		return nil, err
	}
	if !lp.WaitStable(10 * time.Second) {
		lp.Close()
		return nil, fmt.Errorf("p2prange: ring via %s did not stabilize", bootstrap)
	}
	return lp, nil
}

// LookupTraced is Lookup returning the stitched span tree of the whole
// protocol run: the signature-cache outcome, one child span per probe
// with its chord hops, and — over TCP — the serve spans executed on the
// remote peers, grafted back with per-peer attribution.
func (lp *LivePeer) LookupTraced(rel, attribute string, q Range, cache bool) (Match, bool, *Trace, error) {
	return lp.node.lookup(rel, attribute, q, cache, true)
}

// AddBase registers a base relation at this peer for SQL execution with
// source fallback, mirroring System.AddBase for live deployments.
func (lp *LivePeer) AddBase(r *Relation) error { return lp.node.base.add(lp.node.schema, r) }

// Query parses, plans, and executes a restricted SQL SELECT from this
// peer: selection leaves resolve through the DHT (with local base
// fallback when AddBase registered the relation), joins and projection
// run here.
func (lp *LivePeer) Query(sql string) (*QueryResult, error) {
	res, _, err := lp.node.query(sql, false)
	return res, err
}

// QueryTraced is Query returning the span tree of the execution,
// including the serve spans of every remote peer that participated.
func (lp *LivePeer) QueryTraced(sql string) (*QueryResult, *Trace, error) {
	return lp.node.query(sql, true)
}

// ReclaimArc pulls the buckets this peer now owns from its successor;
// call it after joining once the ring has stabilized so descriptors
// stored before the join are found at their new owner.
func (lp *LivePeer) ReclaimArc() error { return lp.node.ReclaimArc() }

// Leave gracefully departs: stored buckets are handed to the successor,
// ring neighbors are re-linked, and the peer shuts down.
func (lp *LivePeer) Leave() error {
	n := lp.node.Node()
	succ := n.Successor()
	var handoffErr error
	if succ.ID != n.ID() {
		handoffErr = lp.node.HandoffTo(succ)
	}
	if err := n.Leave(); err != nil && handoffErr == nil {
		handoffErr = err
	}
	lp.Close()
	return handoffErr
}

// Close stops maintenance, the follower, the server, and client
// connections without the graceful hand-off, then checkpoints and
// closes the write-ahead log (if any) so the next boot recovers from a
// sealed segment alone. With BackupTo it returns once that segment is
// mirrored too.
func (lp *LivePeer) Close() {
	if lp.maintainer != nil {
		lp.maintainer.Stop()
	}
	lp.node.Close()
	lp.backups.Wait()
	lp.caller.Close()
	lp.closeEvents()
}

// Recovery reports what boot-time replay restored (zero value for
// memory-only peers): the segment and WAL records applied, whether a
// torn tail was truncated, and how long recovery took.
func (lp *LivePeer) Recovery() wal.Recovery { return lp.node.Recovery }

// Flight returns the peer's flight recorder — nil (the disabled
// recorder) when LiveConfig.FlightOff was set. peerd's /debug/slow and
// /debug/flight and rangeql's \slow read retained entries through it.
func (lp *LivePeer) Flight() *flight.Recorder { return lp.node.Flight() }

// EventsDurable reports whether the peer's cluster event journal also
// lands in a durable events.log (and any latched write error on it).
func (lp *LivePeer) EventsDurable() (bool, error) {
	if lp.events == nil {
		return false, nil
	}
	return true, lp.events.Err()
}

// Durable reports the live WAL state, and whether durability is on.
func (lp *LivePeer) Durable() (wal.Stats, bool) {
	if lp.node.Log == nil {
		return wal.Stats{}, false
	}
	return lp.node.Log.Stats(), true
}

// Descriptor builds a PartitionInfo for data held at this peer.
func (lp *LivePeer) Descriptor(rel, attribute string, rg Range) PartitionInfo {
	return store.Partition{Relation: rel, Attribute: attribute, Range: rg, Holder: lp.Addr()}
}
