package peer

import (
	"log"
	"net"
	"time"

	"p2prange/internal/chord"
	"p2prange/internal/flight"
	"p2prange/internal/obs"
	"p2prange/internal/replica"
	"p2prange/internal/ship"
	"p2prange/internal/transport"
	"p2prange/internal/wal"
)

// HostConfig assembles one node. The zero value of each optional field
// gives the paper's peer: no flight recorder and a memory-only store.
type HostConfig struct {
	Addr   string           // transport address; its hash is the chord ID
	Caller transport.Caller // the node's view of the network
	Peer   Config
	// Flight, when non-nil, turns the flight recorder on.
	Flight *flight.Config
	// WAL makes the store durable when WAL.Dir is set. Boot sets
	// OnRetainDrop, and runs WAL.OnSeal, if any, after its seal event.
	WAL wal.Options
}

// Host is one assembled node: the protocol peer plus what a process
// wires around it. Every peer — the simulator's clusters and drivers,
// System's nodes and StartPeer's live peer — boots through the same
// stages:
//
//   - build: New, plus the flight recorder unless it is off;
//   - recover: wal.Open into the store when a data directory is set;
//   - wire: the ship service as an aux handler and WAL shipping to
//     replicas;
//
// (those three are Boot), then
//
//   - serve: ServeMemory or ServeTCP;
//   - join or place: Node().Join then ReclaimArc, or Place over many
//     hosts;
//   - stop: Crash or Close.
type Host struct {
	*Peer
	Log      *wal.Log      // nil when memory-only
	Recovery wal.Recovery  // what boot-time replay found
	Ship     *ship.Service // the receiver of replica pushes

	unserve func()
}

// Boot runs the build, recover and wire stages. The node does not serve
// yet: ServeMemory or ServeTCP comes next.
func Boot(cfg HostConfig) (*Host, error) {
	p, err := New(cfg.Addr, cfg.Caller, cfg.Peer)
	if err != nil {
		return nil, err
	}
	h := &Host{Peer: p, unserve: func() {}}
	if cfg.Flight != nil {
		// The exemplar hook pins each recorded lookup's trace ID onto its
		// peer.lookup_us latency bucket, so a Prometheus scrape links a
		// slow bucket straight to a retained trace on /debug/flight. Only
		// whole lookups annotate that histogram — serves and SQL have
		// different shapes.
		fc := *cfg.Flight
		fc.Exemplar = func(kind string, us, id uint64) {
			if kind == flight.KindLookup {
				metLookupUS.SetExemplar(us, id)
			}
		}
		p.SetFlight(flight.New(fc))
	}
	if cfg.WAL.Dir != "" {
		if err := h.recover(cfg.WAL); err != nil {
			return nil, err
		}
	}
	h.wire()
	return h, nil
}

// recover opens the WAL into the store before the node serves, so the
// store holds its durable descriptors when the first request or
// anti-entropy digest arrives. Open also makes the log the store's
// journal and commit barrier, and serves a bounded store's working set
// from the sealed segment (read-through).
func (h *Host) recover(opts wal.Options) error {
	addr := h.Addr()
	mirror := opts.OnSeal
	// Seal events come from this hook so the wal package itself stays
	// free of the observability plane.
	opts.OnSeal = func(seq uint64) {
		obs.Events.Emitf(obs.SevInfo, "wal", "%s sealed segment %016x: wal folded, replay debt cleared", addr, seq)
		if mirror != nil {
			mirror(seq)
		}
	}
	opts.OnRetainDrop = func(name string, c wal.Cursor) {
		// The operator should know when the retention budget, not the
		// successor's own pace, forces a digest round.
		log.Printf("p2prange: %s: ship-retain budget dropped pin %s at %s; the next sync to that successor falls back to a digest round",
			addr, name, c)
		obs.Events.Emitf(obs.SevWarn, "wal", "%s retention budget dropped pin %s at %s: the next sync to that successor falls back to a digest round", addr, name, c)
	}
	lg, rec, err := wal.Open(opts, h.Store())
	if err != nil {
		return err
	}
	h.Log, h.Recovery = lg, rec
	if rec.TornTail || rec.DroppedFiles > 0 {
		obs.Events.Emitf(obs.SevWarn, "peer", "%s recovered with damage: torn_tail=%v dropped_files=%d (replayed %d wal record(s) over %d from segment %016x)",
			addr, rec.TornTail, rec.DroppedFiles, rec.Replayed, rec.SegmentRecords, rec.SegmentSeq)
	} else if rec.SegmentRecords > 0 || rec.Replayed > 0 {
		obs.Events.Emitf(obs.SevInfo, "peer", "%s recovered %d descriptor(s) from segment %016x plus %d wal record(s) in %s",
			addr, rec.SegmentRecords, rec.SegmentSeq, rec.Replayed, rec.Elapsed.Round(time.Millisecond))
	}
	return nil
}

// wire attaches replica push. Every node answers the receiving half
// (pushed record batches from a replica owner); with a WAL, replica
// anti-entropy also ships the WAL delta to full-replica successors (see
// replica.Shipper) instead of a digest walk, which stays the repair of
// last resort. Only records this node owns ship onward — replicated
// copies must not cascade replica-to-replica.
func (h *Host) wire() {
	h.Ship = ship.NewService(h.Store())
	h.RegisterAux(h.Ship.Handle)
	if h.Log != nil && h.replica != nil {
		pusher := ship.NewPusher(h.Log, h.Addr(), func(r wal.Record) bool {
			return h.node.Owns(uint32(r.ID))
		})
		h.replica.SetShip(replica.Shipper{
			Ship: func(succ chord.Ref) (int, bool) {
				return pusher.SyncTo(succ.Addr, func(req any) (any, error) {
					return h.Call(succ, req)
				})
			},
			Retain: pusher.Retain,
		})
	}
}

// ServeMemory registers the node on an in-memory network.
func (h *Host) ServeMemory(m *transport.Memory) {
	m.Register(h.Addr(), h.Handle)
	h.unserve = func() { m.Unregister(h.Addr()) }
}

// ServeTCP serves the node on ln.
func (h *Host) ServeTCP(ln net.Listener) {
	srv := transport.ServeTCP(ln, h.Handle)
	h.unserve = func() { srv.Close() }
}

// Status describes the node for the observability plane: identity,
// ring links, load and, where present, its WAL and flight recorder. Readiness, metrics and events belong to
// the process, which adds them.
func (h *Host) Status() obs.NodeStatus {
	st := obs.NodeStatus{
		Addr:      h.Addr(),
		Ref:       h.Ref().String(),
		Successor: h.Node().Successor().String(),
		Stored:    h.Store().Len(),
		Served:    h.ServedProbes(),
	}
	if h.Log != nil {
		ws, du, rec := h.Log.Stats(), h.Log.Usage(), h.Recovery
		st.Durable = &obs.DurableStatus{
			Dir:           ws.Dir,
			Fsync:         ws.Fsync,
			ActiveSeq:     ws.ActiveSeq,
			SegmentSeq:    ws.SegmentSeq,
			Appended:      ws.Appended,
			Durable:       ws.Durable,
			SinceFold:     ws.SinceFold,
			Err:           ws.Err,
			ReadThrough:   rec.ReadThrough,
			IndexRebuilt:  rec.IndexRebuilt,
			WALBytes:      du.WALBytes,
			SegmentBytes:  du.SegmentBytes,
			RetainedBytes: du.RetainedBytes,
			OldestWALSeq:  du.OldestWALSeq,
		}
		if rec.ReadThrough {
			st.Durable.Resident = h.Store().MemLen()
		}
	}
	if f := h.Flight(); f.On() {
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
	return st
}

// Place builds a converged ring over hosts in place of joins: what a
// long-stabilized ring converges to (see chord.BuildStableRing).
func Place(hosts []*Host) error { return chord.BuildStableRing(Nodes(hosts)) }

// Nodes returns the hosts' chord nodes.
func Nodes(hosts []*Host) []*chord.Node {
	nodes := make([]*chord.Node, len(hosts))
	for i, h := range hosts {
		nodes[i] = h.Node()
	}
	return nodes
}

// Crash stops the node as kill -9 would: the WAL keeps what it committed
// and loses its buffer, and the node leaves the network with no
// hand-off.
func (h *Host) Crash() {
	if h.Log != nil {
		h.Log.Crash()
	}
	h.unserve()
}

// Close shuts the node down: the node leaves the network, and the WAL
// checkpoints and closes, so the next boot recovers from a sealed
// segment alone.
func (h *Host) Close() {
	h.unserve()
	if h.Log != nil {
		h.Log.Close()
	}
}
