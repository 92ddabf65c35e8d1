// Package chord implements the Chord distributed hash table (Stoica et
// al., SIGCOMM 2001), the lookup substrate the paper builds on (Sec. 3.2):
// every LSH identifier of a query range resolves to the peer that owns it
// on the ring.
//
// The identifier space is 32-bit (M=32) so ring positions coincide with
// the LSH identifier space of internal/minhash — a group identifier IS a
// ring position, no re-hashing. Peers hash to the ring by SHA-1 of their
// transport address; an identifier belongs to the first peer clockwise
// from it (its successor).
//
// Lookups route iteratively via finger tables in O(log N) hops — the path
// lengths Figs. 12(a)/12(b) measure (mean ~= 0.5*log2 N, with the full
// hop-count distribution collected through internal/metrics). The package
// provides the live protocol — join, stabilize, notify, fix-fingers over a
// pluggable transport — plus a fast static-ring constructor used by
// internal/sim for the large rings of Figs. 11-12.
//
// Nodes keep successor lists, and routing is failure-aware: when a finger
// is unreachable, lookup detours through the successor list instead of
// failing, and counts the reroute in metrics.RouteStats. Config
// (DisableRerouting) exposes the fault-model ablation; cmd/peerd's
// -no-reroute flag maps to it.
//
// Node.Lookup takes an internal/trace Span and records each forwarding
// step, suspect marking and detour on it; a nil span traces nothing and
// adds no allocations. Maintenance RPCs travel untraced.
package chord
