// Package store implements the per-peer partition store of the paper's
// Sec. 4 protocol: hash buckets keyed by 32-bit identifiers, each holding
// descriptors of cached data partitions.
//
// A descriptor (Partition) names a horizontal partition — the tuples of
// one relation selected by a range predicate on one attribute — and the
// peer that materialized it. Descriptors are what travel through the DHT:
// a partition is published under each of its l LSH identifiers (see
// internal/minhash), so the bucket for any one identifier of a similar
// query range likely contains it.
//
// Lookup locates the bucket for an identifier and picks the best-matching
// descriptor under a similarity measure (Sec. 5.2): MatchJaccard scores
// candidates by Jaccard similarity |Q∩P|/|Q∪P| — the measure the hash
// family is calibrated for (Figs. 6-8) — while MatchContainment scores by
// |Q∩P|/|Q|, which rewards supersets of the query and lifts full-recall
// answers from ~35% to ~60% of queries in Fig. 9.
//
// Two extensions ride on the same structure. NewBounded caps the number
// of cached descriptors with least-recently-matched eviction (the paper
// assumes unbounded caches; the "capacity" ablation measures the
// degradation). The peer index (Sec. 5.3) searches every bucket a peer
// owns rather than only the requested one, trading per-lookup work for
// recall.
//
// The store is also the write-through point for durability. wal.Open
// replays a data directory into the store, then attaches its log as the
// store's Journal, which is called under the store's write lock on every
// admission, upgrade, deletion and arc extraction — so journal order
// always equals apply order, and replay reconstructs the store exactly.
// Capacity evictions are never journaled: a durable bounded store reads
// through to the sealed segment (SetSegments), where an evicted copy is
// still on disk. Journal appends only buffer; Commit is the fsync
// barrier, taken on acknowledgement paths and a no-op for a memory-only
// store (see docs/DURABILITY.md).
package store
