package chord

import (
	"errors"
	"fmt"

	"p2prange/internal/metrics"
	"p2prange/internal/trace"
)

// maxLookupSteps bounds iterative routing; with M=32 a correct ring never
// needs more than M forwarding steps, so anything beyond that is a routing
// loop caused by stale state.
const maxLookupSteps = 2 * M

// The Default-registry chord.* family: the per-lookup hop-count
// distribution (the Fig. 12 quantity, live) and the RPCs routing and
// maintenance send. The route.* counters are the failure-handling side
// of the same lookups: issued, failed, and hops rerouted around an
// unreachable node (the transport package adds route.retries).
var (
	metChordHops     = metrics.Default.IntHistogram("chord.hops")
	metRouteRPCs     = metrics.Default.Counter("chord.route_rpcs")
	metRouteLookups  = metrics.Default.Counter("route.lookups")
	metRouteFailed   = metrics.Default.Counter("route.failed_lookups")
	metRouteRerouted = metrics.Default.Counter("route.rerouted")
)

// RouteMemo holds the route tables (HandleRouteTable answers) that one
// operation's lookups fetched, so the l lookups of one query ask each
// intermediate peer once. Its zero value is ready to use and allocates
// nothing until the first remote table arrives. A memo must not outlive
// the operation that made it — it is never refreshed — and is not safe
// for concurrent use. A nil *RouteMemo memoises nothing.
type RouteMemo struct {
	tables map[ID]RouteTable
}

// table returns cur's route table: this node's own, built into local
// from its state with no RPC; else from m when an earlier lookup of the
// same operation fetched it; else by RPC. Only a successful, well-formed
// fetch is remembered.
func (n *Node) table(cur Ref, m *RouteMemo, local []Ref) (RouteTable, error) {
	if cur.ID == n.ref.ID {
		return n.routeTable(local), nil
	}
	if m != nil {
		if tbl, ok := m.tables[cur.ID]; ok {
			return tbl, nil
		}
	}
	metRouteRPCs.Inc()
	tbl, err := n.client.RouteTable(cur.Addr)
	if err != nil {
		return RouteTable{}, err
	}
	if len(tbl.Succs) == 0 {
		return RouteTable{}, fmt.Errorf("chord: empty route table from %s", cur)
	}
	if m != nil {
		if m.tables == nil {
			m.tables = make(map[ID]RouteTable)
		}
		m.tables[cur.ID] = tbl
	}
	return tbl, nil
}

// Lookup resolves the node owning identifier id, routing iteratively from
// this node via closest-preceding-finger queries (Stoica et al., Fig. 4).
// It returns the owner and the overlay path length in hops: the number of
// distinct nodes the query is forwarded through, including the final hop
// to the owner and excluding the originating node. This is the quantity
// the paper plots in Fig. 12.
//
// Every hop, this node included, is read the same way from its route
// table: an identifier on the arc its successor list covers resolves to
// the list entry that owns it, anything else forwards to the hop's
// closest preceding candidate. A remote hop's table costs one round
// trip. Fetched tables are kept in memo (which may be nil) for the other
// lookups of the same operation; a remembered table stands in for a
// fresh fetch, so on a ring that does not change mid-operation only the
// RPC count differs.
//
// When an RPC to the next hop fails at the transport level and rerouting
// is enabled (Config.DisableRerouting false), the hop is marked suspect
// and the query routes around it via the successor list of the node that
// supplied the pointer; the detour hops are included in the count. With
// rerouting disabled the lookup fails with ErrUnreachable.
//
// Each forwarding step, suspect marking, and detour is recorded on sp. A
// nil sp (tracing off) adds no work and no allocations.
func (n *Node) Lookup(id ID, memo *RouteMemo, sp *trace.Span) (Ref, int, error) {
	metRouteLookups.Inc()
	ref, hops, err := n.route(id, memo, sp)
	if err != nil {
		metRouteFailed.Inc()
		if sp.On() {
			sp.Eventf("error", "%v", err)
		}
		return ref, hops, err
	}
	metChordHops.Observe(uint64(hops))
	if sp.On() {
		sp.Eventf("owner", "%s hops=%d", ref, hops)
	}
	return ref, hops, err
}

// route is the iterative resolution loop behind Lookup.
func (n *Node) route(id ID, memo *RouteMemo, sp *trace.Span) (Ref, int, error) {
	if n.Owns(id) {
		return n.ref, 0, nil
	}
	var local [M + 2*DefaultSuccessors]Ref
	// from is the node whose routing table pointed us at cur; when cur
	// turns out to be dead, from's successor list (fromSuccs, held from
	// that table) is the detour map.
	from := n.ref
	var fromSuccs []Ref
	cur := n.ref
	hops := 0
	for step := 0; step < maxLookupSteps; step++ {
		tbl, err := n.table(cur, memo, local[:0])
		if err != nil {
			owner, next, rerr := n.handleDeadHop(from, fromSuccs, cur, id, err, sp)
			if rerr != nil {
				return Ref{}, hops, fmt.Errorf("chord: lookup %s via %s: %w", FmtID(id), cur, rerr)
			}
			if !owner.IsZero() {
				return owner, hops + 1, nil
			}
			cur = next
			hops++
			continue
		}
		owner, dead := n.listOwner(cur, tbl.Succs, id)
		switch {
		case owner.ID == cur.ID && !owner.IsZero():
			return cur, hops, nil // the list wrapped: cur owns id
		case !owner.IsZero():
			if sp.On() {
				sp.Eventf("shortcut", "%s via successor list", owner)
			}
			return owner, hops + 1, nil // final hop to the owner
		case !dead.IsZero():
			// The owner itself is suspected dead (e.g. a call to it
			// just failed); its arc has passed to the next live
			// successor, so detour instead of handing back a corpse.
			owner, next, rerr := n.routeAround(cur, tbl.Succs, dead, id, sp)
			if rerr != nil {
				return Ref{}, hops, fmt.Errorf("chord: lookup %s past %s: %w", FmtID(id), dead, rerr)
			}
			if !owner.IsZero() {
				return owner, hops + 1, nil
			}
			cur = next
			hops++
			continue
		}
		next := firstBetween(tbl.Cands, cur, id)
		if next.ID == cur.ID {
			// cur knows no closer node, so its successor should own id —
			// but the ownership check above failed, meaning cur's state is
			// stale. Ask succ directly whether it owns id instead of
			// wandering the ring successor-by-successor, which inflated
			// the hop count by revisiting the final edge.
			succ := tbl.Succs[0]
			if succ.ID == cur.ID || succ.IsZero() {
				return Ref{}, hops, fmt.Errorf("%w: stuck at %s for %s", ErrNotFound, cur, FmtID(id))
			}
			if n.ownsRemote(succ, id) {
				return succ, hops + 1, nil
			}
			from, fromSuccs = cur, tbl.Succs
			cur = succ
			hops++
			if sp.On() {
				sp.Eventf("hop", "%s (successor walk)", cur)
			}
			continue
		}
		from, fromSuccs = cur, tbl.Succs
		cur = next
		hops++
		if sp.On() {
			sp.Eventf("hop", "%s", cur)
		}
	}
	return Ref{}, hops, fmt.Errorf("%w: routing loop resolving %s", ErrNotFound, FmtID(id))
}

// listOwner reads id's owner off cur's successor list: consecutive
// entries bound known ownership arcs, so id in (cur, s₀] or
// (sᵢ₋₁, sᵢ] makes sᵢ the owner (Stoica et al. §6.3 use the list the
// same way). On a ring smaller than the list the list ends at cur, and
// an id on that last arc resolves to cur itself. The scan stops at the
// first zero entry or entry this node suspects, because a dead node's
// arc has already passed to the next live one and only routeAround can
// pick it: when that entry is cur's successor and id is on its arc, it
// comes back as dead. Both results are zero when id lies beyond what
// the list can vouch for.
func (n *Node) listOwner(cur Ref, succs []Ref, id ID) (owner, dead Ref) {
	prev := cur
	for i, s := range succs {
		if s.IsZero() {
			break
		}
		if n.reroute && s.ID != n.ref.ID && s.ID != cur.ID && n.Suspect(s.ID) {
			if i == 0 && BetweenRightIncl(prev.ID, s.ID, id) {
				return Ref{}, s
			}
			break
		}
		if BetweenRightIncl(prev.ID, s.ID, id) {
			return s, Ref{}
		}
		if s.ID == cur.ID {
			break
		}
		prev = s
	}
	return Ref{}, Ref{}
}

// handleDeadHop decides what to do after an RPC to cur failed. For
// transport-level failures with rerouting enabled it marks cur suspect
// and picks a detour from from's successor list fromSuccs (nil when from
// is this node); either the detour entry already owns id (owner is
// non-zero) or the lookup should continue from next. Handler-side errors
// and disabled rerouting surface as rerr.
func (n *Node) handleDeadHop(from Ref, fromSuccs []Ref, cur Ref, id ID, err error, sp *trace.Span) (owner, next Ref, rerr error) {
	if !errors.Is(err, ErrUnreachable) {
		return Ref{}, Ref{}, err
	}
	n.MarkSuspect(cur.ID)
	if sp.On() {
		sp.Eventf("suspect", "%s unreachable", cur)
	}
	if !n.reroute {
		return Ref{}, Ref{}, err
	}
	return n.routeAround(from, fromSuccs, cur, id, sp)
}

// routeAround consults from's successor list for a live node to continue
// a lookup that hit the dead node. Dead successors transfer their arc to
// the next live entry, so if the first live entry s satisfies
// id ∈ (from, s] then s is the owner; otherwise the lookup resumes at s.
// list is from's successor list, held from the route table that pointed
// at the dead node, so a detour costs no extra round trip; it is nil only
// when from is this node, whose list is read from its own state. Each
// candidate is pinged before the detour commits to it — a reroute must
// not hand back, or hop to, another corpse.
func (n *Node) routeAround(from Ref, list []Ref, dead Ref, id ID, sp *trace.Span) (owner, next Ref, rerr error) {
	metRouteRerouted.Inc()
	if list == nil {
		list = n.SuccessorList()
	}
	for _, s := range list {
		if s.IsZero() || s.ID == dead.ID || s.ID == from.ID || n.Suspect(s.ID) {
			continue
		}
		if s.ID != n.ref.ID && n.client.Ping(s.Addr) != nil {
			n.MarkSuspect(s.ID)
			if sp.On() {
				sp.Eventf("suspect", "%s unreachable", s)
			}
			continue
		}
		if BetweenRightIncl(from.ID, s.ID, id) {
			if sp.On() {
				sp.Eventf("detour", "%s past %s (owns id)", s, dead)
			}
			return s, Ref{}, nil
		}
		if sp.On() {
			sp.Eventf("detour", "%s past %s", s, dead)
		}
		return Ref{}, s, nil
	}
	return Ref{}, Ref{}, fmt.Errorf("%w: no live route past %s", ErrUnreachable, dead)
}

// ownsRemote asks succ whether it owns id by fetching its predecessor;
// a node with no predecessor owns everything (mirrors Node.Owns). Errors
// conservatively report false so the caller steps forward and lets the
// next iteration's RPC classify the failure.
func (n *Node) ownsRemote(succ Ref, id ID) bool {
	p, err := n.client.Predecessor(succ.Addr)
	if errors.Is(err, ErrNoPredecessor) {
		return true
	}
	if err != nil || p.IsZero() {
		return false
	}
	return BetweenRightIncl(p.ID, succ.ID, id)
}
