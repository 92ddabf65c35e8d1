// Package can implements a Content-Addressable Network (Ratnasamy et
// al., SIGCOMM 2001) — the other DHT the paper cites as a possible
// substrate for its identifier space ("a structured peer-to-peer overlay
// such as CAN or Chord").
//
// # Geometry
//
// Nodes own hyper-rectangular zones of a d-dimensional unit torus; keys
// hash to points (KeyToPoint salts the same 32-bit identifiers the LSH
// scheme emits, so both substrates share one identifier space); routing
// forwards greedily through zone neighbors toward the target point in
// O(d·N^(1/d)) hops, versus chord's O(log N) — the trade the
// substrate-comparison experiment quantifies against Fig. 12.
//
// # Observability
//
// CAN is a comparison baseline and carries no trace spans. The package
// feeds the can.* family of the internal/metrics Default registry
// (lookups, and the hops histogram that is the CAN counterpart of
// chord.hops); see docs/OBSERVABILITY.md.
package can
