// Package peer implements the paper's peer node: a chord participant
// that owns identifier buckets of partition descriptors, hashes query
// ranges with the shared LSH scheme, and runs the Section 4 protocol.
//
// # The query-side protocol (Sec. 4)
//
// Peer.Lookup computes the l identifiers of a range (through the
// internal/minhash signature pipeline), routes to the chord owner of
// each, asks every owner for its bucket's best match under the configured
// measure (Sec. 5.2: Jaccard or containment), and returns the overall
// best. It is the one implementation of the protocol: every probe
// travels in a FindBestBatchReq, one per distinct owner, or one per probe
// under load-aware replica selection. "If none of the match is exact, also store the computed partition
// at the peers holding the computed identifiers" — the cache=true path.
// Publish is the data-side half: a peer holding a materialized partition
// registers its descriptor under the same l identifiers.
//
// # Data serving and the query executor
//
// DataSource adapts a Peer to internal/query's Source interface for the
// end-to-end SQL flow: locate the best cached partition, fetch its tuples
// from the holder (FetchData), and — when coverage falls below MinRecall
// and a base source exists — fall back to the source relation ("the user
// ... has a choice to go to the source"), materialize the partition here,
// and publish it. PadFrac reproduces Fig. 10's query padding.
//
// # Fault tolerance
//
// Lookups tolerate churn at two levels: the chord layer routes around
// dead hops (internal/chord), and callOwner re-resolves a bucket once
// when its owner died between resolution and the call — with
// Config.Replicas > 0 the succeeding successor already holds a replica of
// the bucket's descriptors. Handoff and arc-transfer messages support
// graceful leaves and joins.
//
// # Observability
//
// Lookup, Publish and FetchData take an internal/trace Span that records
// the signature-cache outcome, one child span per probe with its chord
// hops and detours, one per batch round trip with the grafted serve span
// and the per-probe matches, and store/fallback decisions. A nil span
// traces nothing and costs nothing. Every protocol call goes through
// callCtx, which sends the span's context (zero when nil) and grafts the
// returned serve spans; Handle, the peer's one transport.Handler, opens
// the serving-side span for a sampled context. The package feeds the
// peer.* family of the internal/metrics Default registry (lookups,
// probes, stores, publishes, fetches, fallbacks, the partitions gauge,
// and the lookup_us latency histogram); see docs/OBSERVABILITY.md.
package peer
