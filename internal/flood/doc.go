// Package flood implements the unstructured peer-to-peer baseline the
// paper's introduction contrasts with (Gnutella-style): peers form a
// random overlay graph, cached partitions stay at the peer that created
// them, and queries flood the overlay with a TTL.
//
// # Why it exists
//
// The package quantifies the trade-off the paper argues from: flooding
// finds whatever exists within its horizon but costs O(degree^TTL)
// messages per query, while the DHT approach resolves l identifiers in
// l·O(log N) messages. The flooding-baseline experiment runs the same
// workload through both and compares recall per message.
//
// # Observability
//
// Flooding is a comparison baseline and carries no trace spans. The
// package feeds the flood.* family of the internal/metrics Default
// registry (queries, messages, visited); see docs/OBSERVABILITY.md.
package flood
