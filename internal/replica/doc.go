// Package replica keeps partition descriptors available and their query
// load balanced once traffic stops being uniform. The paper stores each
// descriptor on exactly one Chord successor per identifier, so a popular
// range hammers one peer and a single crash erases the match; Section 5
// leaves caching popular results and balancing storage load as future
// work. This package implements both:
//
//   - Replication: when a bucket owner admits a new descriptor it stamps
//     the copy with a version and its own address (the origin) and
//     pushes it to the first R-1 nodes of its successor list, so the
//     descriptor survives the owner and — because Chord hands a dead
//     node's arc to its first live successor — the bucket's next owner
//     already holds every copy.
//
//   - Popularity tracking: owners count per-identifier probe hits with a
//     decaying gauge; a bucket whose recent hits cross HotThreshold is
//     promoted to a wider replica set (2*R copies), widening exactly
//     the partitions a skewed workload hammers.
//
//   - Load-aware selection: the query side resolves each probe's bucket
//     owner as usual, then runs one load round per lookup
//     (Manager.Rank): one LoadReq per distinct owner, answered with its
//     gauge, each bucket's fan-out and its successor list, and one
//     gauge probe per other replica-set member. Each probe goes to the
//     least-loaded live copy, probes bound for the same copy share one
//     batch, and a failed batch falls back through the remaining
//     candidates to the plain owner path. Reads spread across replicas
//     in proportion to their idleness, which is what tames the hot
//     partition.
//
//   - Anti-entropy repair: owners periodically send a version vector
//     (descriptor key -> version, per bucket) to each replica; the
//     replica answers with what it lacks and the owner pushes full
//     descriptors for just those keys. Churn-lost replicas are re-created
//     within one repair period. The chord Maintainer drives the loop in
//     live deployments (MaintainerConfig.Repair); simulations call
//     Manager.Sync between query batches.
//
// Repair composes with the durable store (internal/wal): a peer that
// restarts with a data directory replays its descriptors with version
// and origin stamps intact, so the digest exchange sees them as current
// and backfills only what changed while the peer was down — replay
// restores the peer's view, anti-entropy reconciles it. A cold restart
// (no journal) is the degenerate case where repair must resupply
// everything, measured as the restart rows of the churn experiment.
//
// The Manager is transport-agnostic: the peer layer supplies the
// placement successors, the ownership predicate, and push/call closures
// (and adds its successor list to LoadResp), so
// this package depends only on chord refs and the store. Counters land
// in the Default metrics registry under replica.* (see
// docs/OBSERVABILITY.md).
package replica
