// Package obs is the cluster-wide observability plane: one peer's
// self-reported status (NodeStatus, served by peerd at /status), the
// merge of many peers' metric snapshots into a cluster view, and the
// rollup statistics — load imbalance, hop and latency percentiles,
// signature-cache hit rate, replica repair counts — that rangetop renders
// live and rangebench emits per experiment.
//
// The same types serve both deployment shapes. Over TCP every peer is
// its own process with its own metrics.Default registry, so rangetop
// polls N /status endpoints and merges the snapshots; in a simulation
// every peer shares one registry, so the cluster view is one snapshot
// plus per-peer stored/served counts read from the peers directly. The
// rollup math is identical either way.
package obs

import (
	"sort"

	"p2prange/internal/metrics"
)

// NodeStatus is one peer's self-description: identity, ring position,
// readiness, its share of the cluster's data and query load, and (for
// live peers) the process-local metrics snapshot.
type NodeStatus struct {
	Addr      string `json:"addr"`
	Ref       string `json:"ref"`
	Successor string `json:"successor"`
	// Stable reports ring-stabilization readiness: the peer knows its
	// predecessor and successor. peerd's /healthz gates on it.
	Stable bool `json:"stable"`
	// Stored is the number of partition descriptors the peer's buckets
	// hold — the per-node load of the paper's Fig. 11.
	Stored int `json:"stored"`
	// Served is how many bucket probes the peer has answered — the
	// query-load measure the load-aware replication balances.
	Served int64 `json:"served"`
	// Metrics is the peer's process-local registry snapshot. Empty for
	// simulated peers, which share one process-wide registry.
	Metrics metrics.Snapshot `json:"metrics,omitempty"`
	// Durable describes the peer's write-ahead log, when one is attached
	// (peerd -data-dir). Nil for memory-only peers.
	Durable *DurableStatus `json:"durable,omitempty"`
	// Flight summarizes the peer's always-on flight recorder. Nil only
	// when recording is disabled (peerd -flight-off).
	Flight *FlightStatus `json:"flight,omitempty"`
	// Events summarizes the peer's cluster event journal.
	Events *EventsStatus `json:"events,omitempty"`
}

// FlightStatus mirrors the flight recorder's rollup (flight.Stats) on
// /status: how many queries finished, how many the tail-based keep
// policy pinned, and the slowest query still in the recent ring — the
// "worst recent query" rangetop shows per peer.
type FlightStatus struct {
	Finished        uint64 `json:"finished"`
	KeptSlow        uint64 `json:"kept_slow"`
	KeptErrored     uint64 `json:"kept_errored"`
	KeptHopHeavy    uint64 `json:"kept_hop_heavy"`
	SlowThresholdUS int64  `json:"slow_threshold_us"`
	WorstUS         int64  `json:"worst_us,omitempty"`
	WorstName       string `json:"worst_name,omitempty"`
	WorstTraceID    string `json:"worst_trace_id,omitempty"`
}

// EventsStatus summarizes the peer's event journal on /status: lifetime
// counts by severity, whether events also land in a durable events.log,
// and the newest few lines for rangetop's events pane.
type EventsStatus struct {
	Total   uint64  `json:"total"`
	Warns   uint64  `json:"warns"`
	Errors  uint64  `json:"errors"`
	Durable bool    `json:"durable,omitempty"`
	Recent  []Event `json:"recent,omitempty"`
}

// DurableStatus mirrors the peer's WAL state (wal.Stats) on /status:
// where the data lives, how far the log has advanced, and whether the
// disk is healthy. Field meanings match docs/DURABILITY.md.
type DurableStatus struct {
	// Dir is the peer's data directory.
	Dir string `json:"dir"`
	// Fsync is the commit barrier mode ("always" or "off").
	Fsync string `json:"fsync"`
	// ActiveSeq is the sequence number of the WAL file being appended.
	ActiveSeq uint64 `json:"active_seq"`
	// SegmentSeq is the newest sealed segment (0 = none yet).
	SegmentSeq uint64 `json:"segment_seq"`
	// Appended and Durable count journaled records and how many of them
	// have reached disk; equal whenever the peer is idle.
	Appended uint64 `json:"appended"`
	Durable  uint64 `json:"durable"`
	// SinceFold counts WAL records not yet folded into a segment — the
	// replay debt a restart right now would pay.
	SinceFold int `json:"since_fold"`
	// Err carries a latched IO or compaction failure; empty is healthy.
	Err string `json:"err,omitempty"`
	// ReadThrough reports segment read-through mode (peerd -mem-limit
	// with -data-dir): the in-memory store is a bounded cache over the
	// sealed segment.
	ReadThrough bool `json:"read_through,omitempty"`
	// Resident is the number of descriptors currently held in memory;
	// at most the configured memory limit, while Stored counts the full
	// working set (memory + segment). Only set in read-through mode.
	Resident int `json:"resident,omitempty"`
	// IndexRebuilt reports that boot found the newest segment's index
	// footer damaged and rebuilt the index with a full-segment scan.
	// Answers are unaffected; the next compaction writes a fresh footer.
	IndexRebuilt bool `json:"index_rebuilt,omitempty"`
	// WALBytes and SegmentBytes are the directory's on-disk footprint:
	// live WAL files (retained ones included) and the sealed segment.
	// Their sum is what the data directory costs right now.
	WALBytes     int64 `json:"wal_bytes"`
	SegmentBytes int64 `json:"segment_bytes"`
	// RetainedBytes is the part of WALBytes kept past a fold only for
	// replica push cursors — retention pressure. Bounded by peerd
	// -ship-retain.
	RetainedBytes int64 `json:"retained_bytes,omitempty"`
	// OldestWALSeq is the oldest WAL file still on disk; a push cursor
	// before it falls back to a digest round.
	OldestWALSeq uint64 `json:"oldest_wal_seq,omitempty"`
}

// ClusterView is the aggregated state of a whole cluster at one instant.
type ClusterView struct {
	Nodes []NodeStatus `json:"nodes"`
	// Global is the cluster-wide metrics snapshot: the merge of every
	// node's registry (live), or the single shared registry (simulation).
	Global metrics.Snapshot `json:"global"`
	Rollup Rollup           `json:"rollup"`
}

// Rollup is the cluster-level summary computed from a view — the numbers
// an operator watches: skew, tail latencies, cache effectiveness, repair
// activity, and delivery health.
type Rollup struct {
	Peers       int `json:"peers"`
	StablePeers int `json:"stable_peers"`

	// Descriptor-placement skew (max/mean stored descriptors per peer;
	// 1.0 is perfectly even, 0 when nothing is stored).
	TotalStored     int     `json:"total_stored"`
	MaxStored       int     `json:"max_stored"`
	MeanStored      float64 `json:"mean_stored"`
	StoredImbalance float64 `json:"stored_imbalance"`

	// Query-load skew (max/mean probes served per peer).
	TotalServed     int64   `json:"total_served"`
	MaxServed       int64   `json:"max_served"`
	ServedImbalance float64 `json:"served_imbalance"`

	// Chord path-length percentiles (chord.hops).
	HopP50 float64 `json:"hop_p50"`
	HopP95 float64 `json:"hop_p95"`
	HopP99 float64 `json:"hop_p99"`

	// End-to-end lookup latency percentiles in microseconds
	// (peer.lookup_us).
	LookupP50US float64 `json:"lookup_p50_us"`
	LookupP95US float64 `json:"lookup_p95_us"`
	LookupP99US float64 `json:"lookup_p99_us"`

	// Signature-cache effectiveness: hits/(hits+misses).
	SigHitRate float64 `json:"sig_hit_rate"`

	// Routing health: successful lookups / attempted (route.*).
	LookupSuccessRate float64 `json:"lookup_success_rate"`

	// Replica subsystem activity.
	ReplicaRepaired   uint64 `json:"replica_repaired"`
	ReplicaSyncRounds uint64 `json:"replica_sync_rounds"`
	ReplicaPromotions uint64 `json:"replica_promotions"`

	// Transport delivery health: errors/calls.
	TransportCalls     uint64  `json:"transport_calls"`
	TransportErrors    uint64  `json:"transport_errors"`
	TransportErrorRate float64 `json:"transport_error_rate"`

	// Flight-recorder rollup: queries finished and kept across every
	// peer, plus the single worst recent query anywhere in the cluster.
	FlightFinished uint64 `json:"flight_finished,omitempty"`
	FlightKeptSlow uint64 `json:"flight_kept_slow,omitempty"`
	WorstQueryUS   int64  `json:"worst_query_us,omitempty"`
	WorstQueryName string `json:"worst_query_name,omitempty"`
	WorstQueryPeer string `json:"worst_query_peer,omitempty"`

	// Event-journal rollup: warnings and errors across every peer.
	EventWarns  uint64 `json:"event_warns,omitempty"`
	EventErrors uint64 `json:"event_errors,omitempty"`
}

// MergeSnapshots folds per-process snapshots into one cluster snapshot:
// counters and gauges sum, histograms merge bucket-wise. Quantiles over
// the merged histogram are cluster-wide quantiles, since the power-of-two
// bucket bounds are identical in every process.
func MergeSnapshots(snaps ...metrics.Snapshot) metrics.Snapshot {
	out := metrics.Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]metrics.HistSnapshot),
	}
	for _, s := range snaps {
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			out.Gauges[name] += v
		}
		for name, h := range s.Histograms {
			out.Histograms[name] = mergeHist(out.Histograms[name], h)
		}
	}
	return out
}

// mergeHist merges two histogram snapshots bucket-wise (keyed by Lo).
func mergeHist(a, b metrics.HistSnapshot) metrics.HistSnapshot {
	at := make(map[uint64]metrics.HistBucket, len(a.Buckets)+len(b.Buckets))
	for _, bk := range a.Buckets {
		at[bk.Lo] = bk
	}
	for _, bk := range b.Buckets {
		if prev, ok := at[bk.Lo]; ok {
			bk.Count += prev.Count
		}
		at[bk.Lo] = bk
	}
	out := metrics.HistSnapshot{Sum: a.Sum + b.Sum}
	for _, bk := range at {
		out.Buckets = append(out.Buckets, bk)
		out.Count += bk.Count
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Lo < out.Buckets[j].Lo })
	if out.Count > 0 {
		out.Mean = float64(out.Sum) / float64(out.Count)
	}
	return out
}

// Compute builds the cluster view for a set of node statuses: merges the
// nodes' snapshots into the global one (unless a pre-merged global is
// supplied for the shared-registry case) and derives the rollup.
func Compute(nodes []NodeStatus, global *metrics.Snapshot) ClusterView {
	var g metrics.Snapshot
	if global != nil {
		g = *global
	} else {
		snaps := make([]metrics.Snapshot, len(nodes))
		for i, n := range nodes {
			snaps[i] = n.Metrics
		}
		g = MergeSnapshots(snaps...)
	}
	return ClusterView{Nodes: nodes, Global: g, Rollup: rollup(nodes, g)}
}

// rollup derives the cluster summary from per-node state and the global
// snapshot.
func rollup(nodes []NodeStatus, g metrics.Snapshot) Rollup {
	r := Rollup{Peers: len(nodes)}
	for _, n := range nodes {
		if n.Stable {
			r.StablePeers++
		}
		r.TotalStored += n.Stored
		if n.Stored > r.MaxStored {
			r.MaxStored = n.Stored
		}
		r.TotalServed += n.Served
		if n.Served > r.MaxServed {
			r.MaxServed = n.Served
		}
		if f := n.Flight; f != nil {
			r.FlightFinished += f.Finished
			r.FlightKeptSlow += f.KeptSlow
			if f.WorstUS > r.WorstQueryUS {
				r.WorstQueryUS = f.WorstUS
				r.WorstQueryName = f.WorstName
				r.WorstQueryPeer = n.Addr
			}
		}
		if e := n.Events; e != nil {
			r.EventWarns += e.Warns
			r.EventErrors += e.Errors
		}
	}
	if len(nodes) > 0 {
		r.MeanStored = float64(r.TotalStored) / float64(len(nodes))
	}
	if r.MeanStored > 0 {
		r.StoredImbalance = float64(r.MaxStored) / r.MeanStored
	}
	if meanServed := float64(r.TotalServed) / float64(max(len(nodes), 1)); meanServed > 0 {
		r.ServedImbalance = float64(r.MaxServed) / meanServed
	}

	hops := g.Histograms["chord.hops"]
	r.HopP50, r.HopP95, r.HopP99 = hops.Quantile(0.5), hops.Quantile(0.95), hops.Quantile(0.99)
	lat := g.Histograms["peer.lookup_us"]
	r.LookupP50US, r.LookupP95US, r.LookupP99US = lat.Quantile(0.5), lat.Quantile(0.95), lat.Quantile(0.99)

	hits := g.Counters["sig.hits"]
	if total := hits + g.Counters["sig.misses"]; total > 0 {
		r.SigHitRate = float64(hits) / float64(total)
	}
	if lookups := g.Counters["route.lookups"]; lookups > 0 {
		r.LookupSuccessRate = float64(lookups-g.Counters["route.failed_lookups"]) / float64(lookups)
	}
	r.ReplicaRepaired = g.Counters["replica.repaired"]
	r.ReplicaSyncRounds = g.Counters["replica.sync_rounds"]
	r.ReplicaPromotions = g.Counters["replica.promotions"]
	r.TransportCalls = g.Counters["transport.calls"]
	r.TransportErrors = g.Counters["transport.errors"]
	if r.TransportCalls > 0 {
		r.TransportErrorRate = float64(r.TransportErrors) / float64(r.TransportCalls)
	}
	return r
}
