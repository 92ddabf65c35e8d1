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
// lengths Figs. 12(a)/12(b) measure (mean ~= 0.5*log2 N − 0.5, with the
// full hop-count distribution collected through internal/metrics). Every
// hop, the origin included, is read from its route table (a RouteTable:
// the node's successor list and its closest-preceding candidates). An
// identifier on the arc the successor list covers resolves there to the
// entry that owns it; any other forwards to the closest preceding
// candidate. The origin builds its own table from its state; a remote
// hop's table is one round trip (Node.HandleRouteTable). A RouteMemo
// shares the fetched tables among the l lookups of one query or publish,
// so each intermediate peer is asked once per operation; the memo never
// outlives the operation. The chord.route_rpcs counter counts the
// fetches, and chord.maint_rpcs the calls ring maintenance makes.
//
// The package provides the live protocol — join, stabilize, notify,
// fix-fingers over a pluggable transport — plus a fast static-ring
// constructor used by internal/sim for the large rings of Figs. 11-12.
//
// Nodes keep successor lists, and routing is failure-aware: when a finger
// is unreachable, lookup detours through the successor list of the hop
// that pointed at it instead of failing — the list that hop's route
// table already carried, so a detour fetches no list of its own — and
// counts the reroute in the route.rerouted counter of the
// internal/metrics Default registry. Config.DisableRerouting exposes the
// fault-model ablation of the churn figure.
//
// Node.Lookup takes a RouteMemo and an internal/trace Span, either of
// which may be nil, and records each forwarding step, suspect marking and
// detour on the span; a nil span traces nothing and adds no allocations.
// Routing and maintenance RPCs travel untraced.
package chord
