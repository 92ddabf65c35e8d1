package p2prange

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"p2prange/internal/chord"
	"p2prange/internal/flight"
	"p2prange/internal/metrics"
	"p2prange/internal/minhash"
	"p2prange/internal/obs"
	"p2prange/internal/peer"
	"p2prange/internal/query"
	"p2prange/internal/relation"
	"p2prange/internal/ship"
	"p2prange/internal/store"
	"p2prange/internal/trace"
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
	// HotReplicas is the replica-set size for popular buckets (owner
	// included; default 2*(Replicas+1)).
	HotReplicas int
	// HotThreshold is the decayed probe count promoting a bucket to
	// HotReplicas copies (default replica.DefaultHotThreshold).
	HotThreshold uint64
	// Stabilize controls the chord maintenance cadence; zero values use
	// chord defaults.
	Stabilize chord.MaintainerConfig
	// Retry controls transport-level retries. Zero values mean 3 attempts
	// with 25ms base backoff; set DisableRetry to turn retries off.
	Retry        transport.RetryConfig
	DisableRetry bool
	// DisableRerouting turns off failure-aware chord routing (lookups fail
	// on the first unreachable hop instead of detouring via successor
	// lists). Exposed for fault-model ablations.
	DisableRerouting bool
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
	// FlightKeep is the capacity of each pinned flight-recorder ring —
	// slow, top-K, errored, hop-heavy (default flight.DefaultKeep).
	FlightKeep int
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

func (c LiveConfig) withDefaults() LiveConfig {
	if c.K <= 0 {
		c.K = minhash.DefaultK
	}
	if c.L <= 0 {
		c.L = minhash.DefaultL
	}
	if c.SchemeSeed == 0 {
		c.SchemeSeed = 1
	}
	return c
}

// LivePeer is one real peer: a TCP server, a chord node with background
// stabilization, and the partition store/protocol.
type LivePeer struct {
	peer       *peer.Peer
	server     *transport.TCPServer
	caller     *transport.TCPCaller
	maintainer *chord.Maintainer
	stats      *metrics.RouteStats
	fault      *transport.FaultCaller
	schema     *relation.Schema
	wal        *wal.Log     // nil when DataDir is unset
	recovery   wal.Recovery // what boot-time replay found
	shipSvc    *ship.Service
	follower   *ship.Follower // nil unless Follow

	flight       *flight.Recorder // nil when FlightOff
	events       *obs.EventLog    // nil when the journal is memory-only
	eventsDetach func()           // unhooks the durable sink on Close

	coalesce *query.Coalescer // shared singleflight for untraced SQL leaf fetches

	mu   sync.RWMutex
	base map[string]*relation.Relation // local base relations for SQL fallback
}

// ErrUnknownCodec is StartPeer's error for a LiveConfig.Codec other than
// "" or transport.CodecBinary.
var ErrUnknownCodec = errors.New("p2prange: unknown LiveConfig.Codec (the only wire protocol is binary)")

// StartPeer launches a live peer listening on listenAddr (host:port; the
// OS picks a port for ":0"). If bootstrap is non-empty the peer joins the
// ring that peer belongs to; otherwise it starts a new one-node ring.
func StartPeer(listenAddr, bootstrap string, cfg LiveConfig) (*LivePeer, error) {
	if cfg.Codec != "" && cfg.Codec != transport.CodecBinary {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCodec, cfg.Codec)
	}
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("p2prange: listen %s: %w", listenAddr, err)
	}
	addr := ln.Addr().String()

	raw, err := minhash.NewScheme(cfg.Family, cfg.K, cfg.L, rand.New(rand.NewSource(cfg.SchemeSeed)))
	if err != nil {
		ln.Close()
		return nil, err
	}
	stats := &metrics.RouteStats{}
	tcp := transport.NewTCPCaller()
	caller := transport.Caller(tcp)
	var fault *transport.FaultCaller
	if cfg.Fault != nil {
		fault = transport.NewFaultCaller(caller, *cfg.Fault)
		caller = fault
	}
	if !cfg.DisableRetry {
		rc := cfg.Retry
		if rc.BaseDelay <= 0 {
			rc.BaseDelay = 25 * time.Millisecond
		}
		if rc.Seed == 0 {
			rc.Seed = int64(chord.HashAddr(addr))
		}
		rc.Stats = stats
		caller = transport.NewRetryCaller(caller, rc)
	}
	p, err := peer.New(addr, caller, peer.Config{
		Scheme:        raw.Compiled(),
		Measure:       cfg.Measure,
		Schema:        cfg.Schema,
		Replicas:      cfg.Replicas,
		LoadAware:     cfg.LoadAware,
		HotReplicas:   cfg.HotReplicas,
		HotThreshold:  cfg.HotThreshold,
		SigCache:      cfg.SigCache,
		CacheCapacity: cfg.MemLimit,
		Chord: chord.Config{
			DisableRerouting: cfg.DisableRerouting,
			Stats:            stats,
		},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	lp := &LivePeer{
		peer:     p,
		caller:   tcp,
		stats:    stats,
		fault:    fault,
		schema:   cfg.Schema,
		base:     make(map[string]*relation.Relation),
		coalesce: query.NewCoalescer(),
	}
	if !cfg.FlightOff {
		// The flight recorder is on by default: tail-based keeps are the
		// point — no flag should be needed to have captured the slow query
		// that already happened. The exemplar hook pins each recorded
		// lookup's trace ID onto its peer.lookup_us latency bucket, so a
		// Prometheus scrape links a slow bucket straight to a retained
		// trace on /debug/flight. Only whole lookups annotate that
		// histogram — serves and SQL have different shapes.
		lookupHist := metrics.Default.IntHistogram("peer.lookup_us")
		lp.flight = flight.New(flight.Config{
			SlowThreshold: cfg.SlowThreshold,
			Keep:          cfg.FlightKeep,
			Exemplar: func(kind string, us, id uint64) {
				if kind == flight.KindLookup {
					lookupHist.SetExemplar(us, flight.TraceIDString(id))
				}
			},
		})
		p.SetFlight(lp.flight)
	}
	if cfg.DataDir != "" {
		// Recover before serving and before joining: the store must hold
		// its durable descriptors when the first request or anti-entropy
		// digest arrives. Open also makes the log the store's journal
		// and commit barrier.
		mode, err := wal.ParseFsyncMode(orDefault(cfg.Fsync, "always"))
		if err != nil {
			lp.closeEarly(ln)
			return nil, err
		}
		opts := wal.Options{
			Dir:          cfg.DataDir,
			Fsync:        mode,
			CompactEvery: cfg.CompactEvery,
			ShipRetain:   cfg.ShipRetain,
			OnRetainDrop: func(follower string, c wal.Cursor) {
				// Satellite of the shipping protocol: the operator should
				// know when the retention budget, not the follower's own
				// pace, forces a full reseed.
				log.Printf("p2prange: %s: ship-retain budget dropped follower %s at %s; it will reseed from the segment",
					addr, follower, c)
				obs.Events.Emitf(obs.SevWarn, "wal", "%s retention budget dropped follower %s at %s: it must reseed from the segment", addr, follower, c)
			},
		}
		// Seal events come from this hook so the wal package itself stays
		// free of the observability plane; the backup mirror (below)
		// chains onto the same hook.
		sealEvent := func(seq uint64) {
			obs.Events.Emitf(obs.SevInfo, "wal", "%s sealed segment %016x: wal folded, replay debt cleared", addr, seq)
		}
		opts.OnSeal = sealEvent
		if cfg.BackupTo != "" {
			var backupMu sync.Mutex
			opts.OnSeal = func(seq uint64) {
				sealEvent(seq)
				// Compaction calls OnSeal inline; mirror in the background
				// so a slow backup disk never stalls the append path.
				go func() {
					backupMu.Lock()
					defer backupMu.Unlock()
					lg := lp.wal // set before serving starts; OnSeal fires only after
					if lg == nil {
						return
					}
					if seq, n, err := lg.BackupSegment(cfg.BackupTo); err != nil {
						log.Printf("p2prange: %s: segment backup to %s: %v", addr, cfg.BackupTo, err)
					} else if n > 0 {
						log.Printf("p2prange: %s: backed up segment %d (%d bytes) to %s", addr, seq, n, cfg.BackupTo)
					}
				}()
			}
		}
		// A -mem-limit store is bounded, so Open serves its working set
		// from the sealed segment (read-through).
		lp.wal, lp.recovery, err = wal.Open(opts, p.Store())
		if err != nil {
			lp.closeEarly(ln)
			return nil, err
		}
	}

	// The cluster event journal: every peer keeps the bounded in-process
	// ring; a peer with a directory also makes it durable (events.log,
	// same framing discipline as the WAL). Open before serving so the
	// boot events below are captured, and preload the previous boots'
	// tail so /debug/events shows what happened before the restart.
	if evDir := orDefault(cfg.EventsDir, cfg.DataDir); evDir != "" {
		if err := os.MkdirAll(evDir, 0o755); err != nil {
			lp.closeEarly(ln)
			return nil, err
		}
		elog, past, err := obs.OpenEventLog(filepath.Join(evDir, "events.log"))
		if err != nil {
			lp.closeEarly(ln)
			return nil, err
		}
		obs.Events.Preload(past)
		lp.events = elog
		lp.eventsDetach = obs.Events.AddSink(elog.Append)
	}
	if lp.wal != nil {
		rec := lp.recovery
		if rec.TornTail || rec.DroppedFiles > 0 {
			obs.Events.Emitf(obs.SevWarn, "peer", "%s recovered with damage: torn_tail=%v dropped_files=%d (replayed %d wal record(s) over %d from segment %016x)",
				addr, rec.TornTail, rec.DroppedFiles, rec.Replayed, rec.SegmentRecords, rec.SegmentSeq)
		} else if rec.SegmentRecords > 0 || rec.Replayed > 0 {
			obs.Events.Emitf(obs.SevInfo, "peer", "%s recovered %d descriptor(s) from segment %016x plus %d wal record(s) in %s",
				addr, rec.SegmentRecords, rec.SegmentSeq, rec.Replayed, rec.Elapsed.Round(time.Millisecond))
		}
	}

	// Log shipping. Every peer answers the receiving half (pushed record
	// batches from a replica owner); with a WAL it also serves the full
	// protocol — follower subscriptions, entry streams, snapshot seeds.
	lp.shipSvc = ship.NewService(ship.ServiceConfig{Log: lp.wal, Store: p.Store()})
	p.RegisterAux(lp.shipSvc.Handle)
	if lp.wal != nil {
		// Replica anti-entropy ships the WAL delta to full-replica
		// successors; digest exchange remains the repair of last resort.
		p.ShipReplicas(lp.wal)
	}
	if cfg.Follow != "" {
		owner := cfg.Follow
		lp.follower = ship.NewFollower(ship.FollowerConfig{
			Owner: owner,
			Self:  addr,
			Call: func(req any) (any, error) {
				resp, _, err := caller.CallCtx(owner, trace.Context{}, req)
				return resp, err
			},
			// Full-fidelity apply — puts, evicts, arc drops — through the
			// store with its journal attached, so the follower's own WAL
			// records exactly what a local recovery would replay.
			Store: p.Store(),
			Dir:   cfg.DataDir,
		})
	}

	lp.server = transport.ServeTCP(ln, p.Handle)
	if bootstrap != "" {
		if err := p.Node().Join(bootstrap); err != nil {
			lp.Close()
			return nil, err
		}
	}
	mcfg := cfg.Stabilize
	if cfg.Replicas > 0 && mcfg.Repair == nil {
		// Anti-entropy rides the maintenance loop: each round re-creates
		// replica copies lost to churn since the last one.
		mcfg.Repair = func() { p.RepairReplicas() }
	}
	lp.maintainer = chord.StartMaintainer(p.Node(), mcfg)
	if lp.follower != nil {
		lp.follower.Run()
	}
	if lp.wal != nil && cfg.BackupTo != "" {
		// Startup backup: whatever segment recovery booted from is
		// mirrored even if the process never folds again.
		if seq, n, err := lp.wal.BackupSegment(cfg.BackupTo); err != nil {
			log.Printf("p2prange: %s: segment backup to %s: %v", addr, cfg.BackupTo, err)
		} else if n > 0 {
			log.Printf("p2prange: %s: backed up segment %d (%d bytes) to %s", addr, seq, n, cfg.BackupTo)
		}
	}
	return lp, nil
}

// closeEarly tears down a partially started peer when StartPeer fails
// after the listener and caller exist but before serving begins.
func (lp *LivePeer) closeEarly(ln net.Listener) {
	ln.Close()
	lp.caller.Close()
	if lp.wal != nil {
		lp.wal.Close()
	}
}

// Addr returns the peer's listen address (how other peers reach it).
func (lp *LivePeer) Addr() string { return lp.peer.Addr() }

// Ref returns the peer's chord identity.
func (lp *LivePeer) Ref() chord.Ref { return lp.peer.Ref() }

// Lookup runs the approximate range lookup from this peer. Routing
// failures (e.g. a peer departed and fingers are stale) are retried with
// backoff while the stabilization protocol repairs the ring.
func (lp *LivePeer) Lookup(rel, attribute string, q Range, cache bool) (Match, bool, error) {
	var lastErr error
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		lr, err := lp.lookupRecorded(rel, attribute, q, cache)
		if err == nil {
			return lr.Match, lr.Found, nil
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
	return Match{}, false, lastErr
}

// lookupRecorded runs one lookup protocol attempt under the flight
// recorder: an always-sampled root span whose stitched tree — probes,
// batches, grafted remote serve spans — is the one LookupTraced builds,
// retained only if the tail-based keep policy finds the outcome
// interesting. With the recorder off this is exactly peer.Lookup's
// nil-span fast path: zero extra allocations, zero extra RPCs.
func (lp *LivePeer) lookupRecorded(rel, attribute string, q Range, cache bool) (peer.LookupResult, error) {
	rec := lp.flight
	if !rec.On() {
		return lp.peer.Lookup(rel, attribute, q, cache, nil)
	}
	sp := rec.Start(fmt.Sprintf("lookup %s.%s %s from %s", rel, attribute, q, lp.Addr()))
	lr, err := lp.peer.Lookup(rel, attribute, q, cache, sp)
	rec.Finish(flight.KindLookup, sp, sumHops(lr.Hops), err)
	return lr, err
}

// sumHops totals the per-probe chord path lengths for the hop-heavy
// keep policy.
func sumHops(hops []int) int {
	total := 0
	for _, h := range hops {
		total += h
	}
	return total
}

// LookupOnce runs a single approximate range lookup with no
// stabilization-retry loop: a routing failure surfaces immediately.
// Load generators use it so each attempt costs exactly one protocol
// run and failures land in the error budget instead of a backoff sleep.
func (lp *LivePeer) LookupOnce(rel, attribute string, q Range, cache bool) (Match, bool, error) {
	lr, err := lp.lookupRecorded(rel, attribute, q, cache)
	if err != nil {
		return Match{}, false, err
	}
	return lr.Match, lr.Found, nil
}

// Publish stores a partition descriptor held by this peer under its l
// identifiers. Like lookups, each publish runs under the flight
// recorder, so a slow or failed publish leaves a retained trace.
func (lp *LivePeer) Publish(info PartitionInfo) error {
	rec := lp.flight
	if !rec.On() {
		_, err := lp.peer.Publish(info, nil)
		return err
	}
	sp := rec.Start(fmt.Sprintf("publish %s.%s %s from %s", info.Relation, info.Attribute, info.Range, lp.Addr()))
	hops, err := lp.peer.Publish(info, sp)
	rec.Finish(flight.KindPublish, sp, sumHops(hops), err)
	return err
}

// AddPartition materializes partition data locally so other peers can
// fetch it; call Publish with its descriptor to make it discoverable.
func (lp *LivePeer) AddPartition(rel *Relation, attribute string, rg Range) error {
	part, err := rel.Partition(attribute, rg)
	if err != nil {
		return err
	}
	lp.peer.AddPartition(part)
	return nil
}

// Fetch retrieves the tuples of a matched partition from its holder.
func (lp *LivePeer) Fetch(m Match) (*Relation, error) { return lp.peer.FetchData(m, nil) }

// StoredPartitions reports how many descriptors this peer's buckets hold.
func (lp *LivePeer) StoredPartitions() int { return lp.peer.Store().Len() }

// Successor exposes the chord successor for health checks.
func (lp *LivePeer) Successor() chord.Ref { return lp.peer.Node().Successor() }

// RouteStats snapshots the peer's failure counters: lookups, failed
// lookups, reroutes around dead nodes, and transport retries.
func (lp *LivePeer) RouteStats() metrics.RouteSnapshot { return lp.stats.Snapshot() }

// SigStats snapshots the peer's signature-cache counters (hits, misses,
// evictions).
func (lp *LivePeer) SigStats() metrics.SigSnapshot { return lp.peer.SigStats() }

// FaultInjector returns the fault-injection layer when LiveConfig.Fault
// was set, for toggling outages at runtime; nil otherwise.
func (lp *LivePeer) FaultInjector() *transport.FaultCaller { return lp.fault }

// Stable reports whether the peer's ring links look settled: predecessor
// known and successor set. A self-successor with no predecessor is a
// singleton ring — the node IS the whole ring and answers lookups, so it
// counts as stable (the stabilize protocol never self-notifies, so a
// lone bootstrap peer would otherwise stay "not ready" forever).
// peerd's /healthz readiness gates on it.
func (lp *LivePeer) Stable() bool {
	succ := lp.peer.Node().Successor()
	if succ.IsZero() {
		return false
	}
	if succ.ID == lp.Ref().ID {
		return true
	}
	_, hasPred := lp.peer.Node().Predecessor()
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
// observability plane: identity, ring links, readiness, load, and the
// process-local metrics snapshot. peerd serves it as JSON at /status;
// rangetop polls it across the cluster.
func (lp *LivePeer) Status() obs.NodeStatus {
	st := obs.NodeStatus{
		Addr:      lp.Addr(),
		Ref:       lp.Ref().String(),
		Successor: lp.Successor().String(),
		Stable:    lp.Stable(),
		Stored:    lp.peer.Store().Len(),
		Served:    lp.peer.ServedProbes(),
		Metrics:   metrics.Default.Snapshot(),
	}
	if ws, ok := lp.Durable(); ok {
		st.Durable = &obs.DurableStatus{
			Dir:          ws.Dir,
			Fsync:        ws.Fsync,
			ActiveSeq:    ws.ActiveSeq,
			SegmentSeq:   ws.SegmentSeq,
			Appended:     ws.Appended,
			Durable:      ws.Durable,
			SinceFold:    ws.SinceFold,
			Err:          ws.Err,
			ReadThrough:  lp.recovery.ReadThrough,
			IndexRebuilt: lp.recovery.IndexRebuilt,
		}
		if lp.recovery.ReadThrough {
			st.Durable.Resident = lp.peer.Store().MemLen()
		}
		du := lp.wal.Usage()
		st.Durable.WALBytes = du.WALBytes
		st.Durable.SegmentBytes = du.SegmentBytes
		st.Durable.RetainedBytes = du.RetainedBytes
		st.Durable.OldestWALSeq = du.OldestWALSeq
		for _, f := range lp.shipSvc.Followers() {
			st.Durable.Followers = append(st.Durable.Followers, obs.FollowerStatus{
				Addr:     f.Addr,
				Seq:      f.Cursor.Seq,
				Off:      f.Cursor.Off,
				LagBytes: f.LagBytes,
				Snapshot: f.Snapshot,
			})
		}
	}
	if f := lp.flight; f.On() {
		fs := f.Stats()
		st.Flight = &obs.FlightStatus{
			Finished:        fs.Finished,
			KeptSlow:        fs.KeptSlow,
			KeptErrored:     fs.KeptErrored,
			KeptHopHeavy:    fs.KeptHopHeavy,
			SlowThresholdUS: fs.SlowThresholdUS,
			WorstUS:         fs.WorstUS,
			WorstName:       fs.WorstName,
			WorstTraceID:    fs.WorstTraceID,
		}
	}
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
	if lp.follower != nil {
		fs := lp.follower.Stats()
		st.Ship = &obs.ShipStatus{
			Owner:     fs.Owner,
			State:     fs.State,
			Seq:       fs.Cursor.Seq,
			Off:       fs.Cursor.Off,
			Applied:   fs.Applied,
			Snapshots: fs.Snapshots,
			Resets:    fs.Resets,
			LastError: fs.LastError,
		}
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
	sp := trace.New(fmt.Sprintf("lookup %s.%s %s from %s", rel, attribute, q, lp.Addr()))
	lr, err := lp.peer.Lookup(rel, attribute, q, cache, sp)
	sp.End()
	// Explicitly traced runs are recorded too: the root name above is
	// byte-identical to lookupRecorded's, so a kept flight entry and a
	// `rangeql -trace` of the same query render the same tree.
	lp.flight.Finish(flight.KindLookup, sp, sumHops(lr.Hops), err)
	if err != nil {
		return Match{}, false, sp, err
	}
	return lr.Match, lr.Found, sp, nil
}

// AddBase registers a base relation at this peer for SQL execution with
// source fallback, mirroring System.AddBase for live deployments.
func (lp *LivePeer) AddBase(r *Relation) error {
	if lp.schema == nil {
		return errors.New("p2prange: LiveConfig.Schema required for relational data")
	}
	if _, ok := lp.schema.Relation(r.Schema.Name); !ok {
		return fmt.Errorf("p2prange: relation %q not in the global schema", r.Schema.Name)
	}
	for _, col := range r.Schema.Columns {
		if col.Type != relation.TString {
			if err := r.BuildIndex(col.Name); err != nil {
				return err
			}
		}
	}
	lp.mu.Lock()
	lp.base[r.Schema.Name] = r
	lp.mu.Unlock()
	return nil
}

// Query parses, plans, and executes a restricted SQL SELECT from this
// peer: selection leaves resolve through the DHT (with local base
// fallback when AddBase registered the relation), joins and projection
// run here.
func (lp *LivePeer) Query(sql string) (*QueryResult, error) {
	res, _, err := lp.runQuery(sql, false)
	return res, err
}

// QueryTraced is Query returning the span tree of the execution,
// including the serve spans of every remote peer that participated.
func (lp *LivePeer) QueryTraced(sql string) (*QueryResult, *Trace, error) {
	return lp.runQuery(sql, true)
}

func (lp *LivePeer) runQuery(sql string, traced bool) (*QueryResult, *Trace, error) {
	if lp.schema == nil {
		return nil, nil, errors.New("p2prange: LiveConfig.Schema required for SQL queries")
	}
	q, err := query.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	plan, err := query.BuildPlan(q, lp.schema)
	if err != nil {
		return nil, nil, err
	}
	lp.mu.RLock()
	base := make(map[string]*relation.Relation, len(lp.base))
	for name, r := range lp.base {
		base[name] = r
	}
	lp.mu.RUnlock()
	src := &peer.DataSource{Peer: lp.peer}
	if len(base) > 0 {
		src.Base = query.NewRelationSource(base)
	}
	var sp *Trace
	switch {
	case traced:
		sp = trace.New(fmt.Sprintf("query from %s", lp.Addr()))
	case lp.flight.On():
		sp = lp.flight.Start(fmt.Sprintf("query from %s", lp.Addr()))
	}
	// Only executions with no span share the peer's singleflight
	// (identical concurrent leaf fetches collapse into one DHT lookup).
	// Span-built runs — explicit traces and flight-recorded queries —
	// stay unshared so every retained tree reflects its own query's
	// work: the recorder trades the coalescer's dedup for attributable
	// trees. Operators who want the dedup back run with -flight-off.
	execSrc := query.Source(src)
	if sp == nil {
		execSrc = lp.coalesce.Bind(src)
	}
	res, err := query.ExecuteTraced(plan, lp.schema, execSrc, sp)
	sp.End()
	lp.flight.Finish(flight.KindQuery, sp, -1, err)
	return res, sp, err
}

// ReclaimArc pulls the buckets this peer now owns from its successor;
// call it after joining once the ring has stabilized so descriptors
// stored before the join are found at their new owner.
func (lp *LivePeer) ReclaimArc() error { return lp.peer.ReclaimArc() }

// Leave gracefully departs: stored buckets are handed to the successor,
// ring neighbors are re-linked, and the peer shuts down.
func (lp *LivePeer) Leave() error {
	succ := lp.peer.Node().Successor()
	var handoffErr error
	if succ.ID != lp.peer.Node().ID() {
		handoffErr = lp.peer.HandoffTo(succ)
	}
	if err := lp.peer.Node().Leave(); err != nil && handoffErr == nil {
		handoffErr = err
	}
	lp.Close()
	return handoffErr
}

// Close stops maintenance, the server, and client connections without the
// graceful hand-off, then checkpoints and closes the write-ahead log (if
// any) so the next boot recovers from a sealed segment alone.
func (lp *LivePeer) Close() {
	if lp.follower != nil {
		lp.follower.Stop()
	}
	if lp.maintainer != nil {
		lp.maintainer.Stop()
	}
	if lp.server != nil {
		lp.server.Close()
	}
	lp.caller.Close()
	if lp.wal != nil {
		lp.wal.Close()
	}
	// The durable event sink unhooks before the log closes so a
	// concurrent Emitf cannot race an append against the closed file.
	if lp.eventsDetach != nil {
		lp.eventsDetach()
	}
	if lp.events != nil {
		lp.events.Close()
	}
}

// Recovery reports what boot-time replay restored (zero value for
// memory-only peers): the segment and WAL records applied, whether a
// torn tail was truncated, and how long recovery took.
func (lp *LivePeer) Recovery() wal.Recovery { return lp.recovery }

// Flight returns the peer's flight recorder — nil (the disabled
// recorder) when LiveConfig.FlightOff was set. peerd's /debug/slow and
// /debug/flight and rangeql's \slow read retained entries through it.
func (lp *LivePeer) Flight() *flight.Recorder { return lp.flight }

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
	if lp.wal == nil {
		return wal.Stats{}, false
	}
	return lp.wal.Stats(), true
}

// Descriptor builds a PartitionInfo for data held at this peer.
func (lp *LivePeer) Descriptor(rel, attribute string, rg Range) PartitionInfo {
	return store.Partition{Relation: rel, Attribute: attribute, Range: rg, Holder: lp.Addr()}
}
