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
// distribution (the Fig. 12 quantity, live).
var metChordHops = metrics.Default.IntHistogram("chord.hops")

// Lookup resolves the node owning identifier id, routing iteratively from
// this node via closest-preceding-finger queries (Stoica et al., Fig. 4).
// It returns the owner and the overlay path length in hops: the number of
// distinct nodes the query is forwarded through, including the final hop
// to the owner and excluding the originating node. This is the quantity
// the paper plots in Fig. 12.
//
// When an RPC to the next hop fails at the transport level and rerouting
// is enabled (Config.DisableRerouting false), the hop is marked suspect
// and the query routes around it via the successor list of the node that
// supplied the pointer; the detour hops are included in the count. With
// rerouting disabled the lookup fails with ErrUnreachable.
//
// Each forwarding step, suspect marking, and detour is recorded on sp. A
// nil sp (tracing off) adds no work and no allocations.
func (n *Node) Lookup(id ID, sp *trace.Span) (Ref, int, error) {
	n.stats.AddLookup()
	ref, hops, err := n.route(id, sp)
	if err != nil {
		n.stats.AddFailedLookup()
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
func (n *Node) route(id ID, sp *trace.Span) (Ref, int, error) {
	if n.Owns(id) {
		return n.ref, 0, nil
	}
	if owner, hops, ok := n.routeViaSuccessorList(id, sp); ok {
		return owner, hops, nil
	}
	// from is the node whose routing table pointed us at cur; when cur
	// turns out to be dead, from's successor list is the detour map.
	from := n.ref
	cur := n.ref
	hops := 0
	for step := 0; step < maxLookupSteps; step++ {
		var succ Ref
		var err error
		if cur.ID == n.ref.ID {
			succ = n.successor()
		} else {
			succ, err = n.client.Successor(cur.Addr)
			if err != nil {
				owner, next, rerr := n.handleDeadHop(from, cur, id, err, sp)
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
		}
		if BetweenRightIncl(cur.ID, succ.ID, id) {
			if succ.ID == cur.ID {
				return succ, hops, nil // owner already reached
			}
			if n.reroute && succ.ID != n.ref.ID && n.Suspect(succ.ID) {
				// The owner itself is suspected dead (e.g. a call to it
				// just failed); its arc has passed to the next live
				// successor, so detour instead of handing back a corpse.
				owner, next, rerr := n.routeAround(cur, succ, id, sp)
				if rerr != nil {
					return Ref{}, hops, fmt.Errorf("chord: lookup %s past %s: %w", FmtID(id), succ, rerr)
				}
				if !owner.IsZero() {
					return owner, hops + 1, nil
				}
				cur = next
				hops++
				continue
			}
			return succ, hops + 1, nil // final hop to the owner
		}
		var next Ref
		if cur.ID == n.ref.ID {
			next, err = n.HandleClosestPreceding(id)
		} else {
			next, err = n.client.ClosestPreceding(cur.Addr, id)
		}
		if err != nil {
			owner, alt, rerr := n.handleDeadHop(from, cur, id, err, sp)
			if rerr != nil {
				return Ref{}, hops, fmt.Errorf("chord: lookup %s via %s: %w", FmtID(id), cur, rerr)
			}
			if !owner.IsZero() {
				return owner, hops + 1, nil
			}
			cur = alt
			hops++
			continue
		}
		if next.ID == cur.ID {
			// cur knows no closer node, so its successor should own id —
			// but the ownership check above failed, meaning cur's state is
			// stale. Ask succ directly whether it owns id instead of
			// wandering the ring successor-by-successor, which inflated
			// the hop count by revisiting the final edge.
			if succ.ID == cur.ID {
				return Ref{}, hops, fmt.Errorf("%w: stuck at %s for %s", ErrNotFound, cur, FmtID(id))
			}
			if n.ownsRemote(succ, id) {
				return succ, hops + 1, nil
			}
			from = cur
			cur = succ
			hops++
			if sp.On() {
				sp.Eventf("hop", "%s (successor walk)", cur)
			}
			continue
		}
		from = cur
		cur = next
		hops++
		if sp.On() {
			sp.Eventf("hop", "%s", cur)
		}
	}
	return Ref{}, hops, fmt.Errorf("%w: routing loop resolving %s", ErrNotFound, FmtID(id))
}

// routeViaSuccessorList resolves ids falling on the arc the successor
// list covers without any RPC: stabilization maintains our r nearest
// successors, whose consecutive pairs (succs[i-1], succs[i]] are known
// ownership segments (Stoica et al. §6.3 use the list the same way).
// A hit is one hop — the query forwards straight to the owner instead
// of walking the ring. The fast path declines — reporting ok=false so
// the caller runs the full iterative loop — as soon as it meets a
// suspect entry, because a dead successor's arc has already passed to
// the next live node and only routeAround can pick it.
func (n *Node) routeViaSuccessorList(id ID, sp *trace.Span) (Ref, int, bool) {
	prev := n.ref
	for _, s := range n.SuccessorList() {
		if s.IsZero() || (n.reroute && s.ID != n.ref.ID && n.Suspect(s.ID)) {
			return Ref{}, 0, false
		}
		if BetweenRightIncl(prev.ID, s.ID, id) {
			if sp.On() {
				sp.Eventf("shortcut", "%s via successor list", s)
			}
			return s, 1, true
		}
		prev = s
	}
	return Ref{}, 0, false
}

// handleDeadHop decides what to do after an RPC to cur failed. For
// transport-level failures with rerouting enabled it marks cur suspect
// and picks a detour from from's successor list; either the detour entry
// already owns id (owner is non-zero) or the lookup should continue from
// next. Handler-side errors and disabled rerouting surface as rerr.
func (n *Node) handleDeadHop(from, cur Ref, id ID, err error, sp *trace.Span) (owner, next Ref, rerr error) {
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
	return n.routeAround(from, cur, id, sp)
}

// routeAround consults from's successor list for a live node to continue
// a lookup that hit the dead node. Dead successors transfer their arc to
// the next live entry, so if the first live entry s satisfies
// id ∈ (from, s] then s is the owner; otherwise the lookup resumes at s.
// Each candidate is pinged before the detour commits to it — a reroute
// must not hand back, or hop to, another corpse.
func (n *Node) routeAround(from, dead Ref, id ID, sp *trace.Span) (owner, next Ref, rerr error) {
	n.stats.AddReroute()
	var list []Ref
	if from.ID == n.ref.ID {
		list = n.SuccessorList()
	} else {
		var err error
		list, err = n.client.SuccessorList(from.Addr)
		if err != nil {
			if !errors.Is(err, ErrUnreachable) {
				return Ref{}, Ref{}, err
			}
			// The pointer's source died too: fall back to our own list.
			n.MarkSuspect(from.ID)
			if sp.On() {
				sp.Eventf("suspect", "%s unreachable", from)
			}
			from = n.ref
			list = n.SuccessorList()
		}
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
