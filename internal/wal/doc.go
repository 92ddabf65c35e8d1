// Package wal gives a peer's partition store a disk: an append-only,
// checksummed write-ahead log plus immutable segment files, so a peer
// that crashes or restarts rejoins the ring with the descriptors it
// held instead of an empty store. The paper assumes bucket contents die
// with their peer and rebuilds through re-publication; durability turns
// churn from data loss into brief unavailability, leaving anti-entropy
// (internal/replica) only the writes that arrived while the peer was
// down.
//
// Open is the one way to make a store durable: it recovers a data
// directory into the store, reading through to the sealed segment when
// the store is bounded, and attaches the live Log as the store's
// journal once replay is done.
//
// The write path is write-through with a deferred barrier. A Log
// implements store.Journal: the store calls Put/Evict/DropArc under its
// own write lock, so the WAL records mutations in exactly apply order,
// and those calls only buffer in memory. Commit is the durability
// barrier — it writes and fsyncs everything buffered, and concurrent
// committers coalesce behind one fsync (group commit, the same
// first-waiter-becomes-flusher idiom as the transport's frame writer).
// Peers reach it through Store.Commit only on paths that acknowledge
// writes to others (StoreReq, handoff, arc transfer), which keeps the
// lookup hot path free of disk IO while guaranteeing that an
// acknowledged write is on disk before the acknowledgment leaves.
//
// On disk, a data directory holds numbered wal-<seq>.log files and at
// most one live sealed seg-<seq>.seg segment. Records are uvarint
// length-prefixed and CRC32-C checksummed, built from the same codec
// primitives as the wire protocol (internal/transport) with the same
// hostile-input clamps. Compaction folds the segment plus completed WAL
// files into a fresh sealed segment — pure file-level work, no store
// access — and retires its inputs only after the replacement is
// durable. Recovery (Open) loads the newest fully-valid segment,
// replays WAL files above it in order, truncates a torn tail at the
// last valid record, and always starts a fresh WAL file; replaying a
// prefix twice is harmless because restore goes through store.Put's
// version-monotone admission rule.
//
// Each piece of the format has one owner, so every reader (boot, folds,
// the read path, shipping, walctl) applies the same rules: checkFrame
// checks a record frame; readWAL reads a WAL file; decodeSegment decodes
// a segment's record stream (parseSegment wraps it for an image held in
// memory); indexBuilder builds a footer's index and blooms and
// readFooter checks one; installFile puts a whole file in place (tmp,
// fsync, rename, directory fsync).
//
// docs/DURABILITY.md specifies the on-disk format byte by byte and
// includes the operator runbook for data directories, backups, and
// post-crash triage.
package wal
