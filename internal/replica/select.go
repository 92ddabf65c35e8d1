package replica

import (
	"cmp"
	"slices"

	"p2prange/internal/chord"
	"p2prange/internal/trace"
	"p2prange/internal/transport"
)

// Candidate is one member of a bucket's replica set with its probed load.
type Candidate struct {
	Ref  chord.Ref
	Load int64
}

// gauge is one replica-set member's load as read during a single Rank
// call; a dead member failed its probe and is not asked again.
type gauge struct {
	load int64
	dead bool
}

// Rank orders the replica set of each probe's bucket by load, for a
// lookup whose probe i asks for bucket ids[i] at owners[i]. It runs one
// load round per lookup:
//
//   - each distinct owner gets one LoadReq carrying all of its
//     identifiers, answered with its gauge, each bucket's fan-out and
//     its successor list;
//   - every other member of those replica sets (the owner's first
//     fan-out−1 live successors) is asked for its gauge at most once.
//
// A member that fails its probe is suspected and not asked again in
// this call. Candidate list i holds the owner first, then its
// successors in ring order, stably sorted by load, so ties keep the
// owner and an idle ring behaves exactly like the unreplicated
// protocol. It is empty when owners[i] could not be load-probed; the
// caller then takes the plain owner path. Nothing outlives the call.
func (m *Manager) Rank(ids []uint32, owners []chord.Ref, sp *trace.Span) [][]Candidate {
	known := make(map[chord.ID]gauge)
	fanouts := make([]int, len(ids))
	succs := make([][]chord.Ref, len(ids))
	owned := make([]uint32, 0, len(ids)) // every owner's IDs, subsliced per request
	for i, o := range owners {
		if _, asked := known[o.ID]; asked {
			continue
		}
		start := len(owned)
		for j := i; j < len(ids); j++ {
			if owners[j].ID == o.ID {
				owned = append(owned, ids[j])
			}
		}
		req := LoadReq{IDs: owned[start:]}
		lr, ok := m.probe(o, req, known, sp)
		if !ok {
			continue
		}
		// A reply without one fan-out per bucket (a peer without
		// replication) ranks the owner alone.
		k := 0
		for j := i; j < len(ids); j++ {
			if owners[j].ID != o.ID {
				continue
			}
			fanouts[j] = 1
			if len(lr.Fanouts) == len(req.IDs) {
				fanouts[j] = lr.Fanouts[k]
			}
			succs[j] = lr.Successors
			k++
		}
	}
	out := make([][]Candidate, len(ids))
	for i, o := range owners {
		own := known[o.ID]
		if own.dead {
			if sp.On() {
				sp.Eventf("replica", "probe %d: owner %s unreachable, no candidates", i+1, o)
			}
			continue
		}
		cands := make([]Candidate, 1, max(1, fanouts[i]))
		cands[0] = Candidate{Ref: o, Load: own.load}
		for _, s := range succs[i] {
			if len(cands) >= fanouts[i] {
				break
			}
			if s.IsZero() || s.ID == o.ID || slices.ContainsFunc(cands, func(c Candidate) bool { return c.Ref.ID == s.ID }) {
				continue
			}
			if _, asked := known[s.ID]; !asked {
				m.probe(s, LoadReq{}, known, sp)
			}
			if g := known[s.ID]; !g.dead {
				cands = append(cands, Candidate{Ref: s, Load: g.load})
			}
		}
		slices.SortStableFunc(cands, func(a, b Candidate) int { return cmp.Compare(a.Load, b.Load) })
		out[i] = cands
		if sp.On() {
			sp.Eventf("replica", "probe %d: %d candidate(s), least loaded %s load=%d", i+1, len(cands), cands[0].Ref, cands[0].Load)
		}
	}
	return out
}

// probe sends one LoadReq to member to and records the answer in known:
// its gauge, or dead when the call failed (a retryable failure also
// suspects the member).
func (m *Manager) probe(to chord.Ref, req LoadReq, known map[chord.ID]gauge, sp *trace.Span) (LoadResp, bool) {
	metLoadProbes.Inc()
	resp, err := m.deps.Call(to, req)
	lr, ok := resp.(LoadResp)
	if err != nil || !ok {
		if err != nil && transport.Retryable(err) {
			m.deps.Suspect(to.ID)
		}
		if sp.On() {
			sp.Eventf("replica", "%s load probe failed (%v)", to, err)
		}
		known[to.ID] = gauge{dead: true}
		return LoadResp{}, false
	}
	known[to.ID] = gauge{load: lr.Load}
	return lr, true
}

// Settle records how probe (1-based) of a bucket owned by owner, ranked
// into cands, was answered: by cands[k], or, with k < 0, by the plain
// owner path after no candidate answered. It keeps the selection
// counters and notes the outcome on sp.
func Settle(probe int, owner chord.Ref, cands []Candidate, k int, sp *trace.Span) {
	if k < 0 {
		metFallbacks.Inc()
		if sp.On() {
			sp.Eventf("replica", "probe %d: no live replica of %d candidate(s), falling back to owner", probe, len(cands))
		}
		return
	}
	metSelections.Inc()
	if cands[k].Ref.ID != owner.ID {
		metDiverted.Inc()
	}
	if sp.On() {
		sp.Eventf("replica", "probe %d: served by %s load=%d (candidate %d/%d)", probe, cands[k].Ref, cands[k].Load, k+1, len(cands))
	}
}
