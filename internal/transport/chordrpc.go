package transport

import (
	"errors"
	"fmt"
	"strings"

	"p2prange/internal/chord"
	"p2prange/internal/trace"
)

// Chord protocol messages. The same message types travel over both
// transports; init declares them with RegisterType.
type (
	// SuccessorReq asks a node for its successor.
	SuccessorReq struct{}
	// PredecessorReq asks a node for its predecessor.
	PredecessorReq struct{}
	// ClosestPrecedingReq asks for the closest finger preceding ID.
	// Lookups read the same answer from RouteTableReq; this request is
	// served for ring-convergence checks.
	ClosestPrecedingReq struct{ ID chord.ID }
	// RouteTableReq asks a node for its successor list and routing
	// candidates, answered with RouteTableResp: one lookup hop's round
	// trip.
	RouteTableReq struct{}
	// FindSuccessorReq asks a node to resolve the owner of ID recursively.
	FindSuccessorReq struct{ ID chord.ID }
	// NotifyReq tells a node that Self may be its predecessor.
	NotifyReq struct{ Self chord.Ref }
	// PingReq checks liveness.
	PingReq struct{}
	// SuccessorListReq asks a node for its successor list, used to route
	// around failed nodes mid-lookup.
	SuccessorListReq struct{}
	// RefResp carries a node reference back.
	RefResp struct{ Ref chord.Ref }
	// RefsResp carries an ordered list of node references back.
	RefsResp struct{ Refs []chord.Ref }
	// RouteTableResp carries a node's route table back: its successor
	// list in ring order, then its candidates in closest-preceding scan
	// order (chord.RouteTable).
	RouteTableResp struct{ Succs, Cands []chord.Ref }
	// OKResp acknowledges a request with no payload.
	OKResp struct{}
)

func init() {
	for _, v := range []any{
		SuccessorReq{}, PredecessorReq{}, ClosestPrecedingReq{},
		FindSuccessorReq{}, NotifyReq{}, PingReq{}, SuccessorListReq{},
		RefResp{}, RefsResp{}, OKResp{}, RouteTableReq{}, RouteTableResp{},
	} {
		RegisterType(v)
	}
}

// ChordClient adapts a Caller to the chord.Client interface. Chord
// routing is iterative, so every hop is already visible on the querying
// side: its RPCs travel untraced.
type ChordClient struct {
	Caller Caller
}

var _ chord.Client = ChordClient{}

func (c ChordClient) refCall(addr string, req any) (chord.Ref, error) {
	resp, _, err := c.Caller.CallCtx(addr, trace.Context{}, req)
	if err != nil {
		return chord.Ref{}, mapChordErr(err)
	}
	rr, ok := resp.(RefResp)
	if !ok {
		return chord.Ref{}, BadRequest(resp)
	}
	return rr.Ref, nil
}

// Successor implements chord.Client.
func (c ChordClient) Successor(addr string) (chord.Ref, error) {
	return c.refCall(addr, SuccessorReq{})
}

// Predecessor implements chord.Client.
func (c ChordClient) Predecessor(addr string) (chord.Ref, error) {
	return c.refCall(addr, PredecessorReq{})
}

// ClosestPreceding asks the node at addr for its closest node preceding
// id. It is not part of chord.Client: lookups read the same answer from
// RouteTable.
func (c ChordClient) ClosestPreceding(addr string, id chord.ID) (chord.Ref, error) {
	return c.refCall(addr, ClosestPrecedingReq{ID: id})
}

// RouteTable implements chord.Client. A peer that answers with any
// other response type fails the call instead of being misread.
func (c ChordClient) RouteTable(addr string) (chord.RouteTable, error) {
	resp, _, err := c.Caller.CallCtx(addr, trace.Context{}, RouteTableReq{})
	if err != nil {
		return chord.RouteTable{}, mapChordErr(err)
	}
	rt, ok := resp.(RouteTableResp)
	if !ok {
		return chord.RouteTable{}, BadRequest(resp)
	}
	return chord.RouteTable(rt), nil
}

// FindSuccessor implements chord.Client.
func (c ChordClient) FindSuccessor(addr string, id chord.ID) (chord.Ref, error) {
	return c.refCall(addr, FindSuccessorReq{ID: id})
}

// Notify implements chord.Client.
func (c ChordClient) Notify(addr string, self chord.Ref) error {
	_, _, err := c.Caller.CallCtx(addr, trace.Context{}, NotifyReq{Self: self})
	return mapChordErr(err)
}

// Ping implements chord.Client.
func (c ChordClient) Ping(addr string) error {
	_, _, err := c.Caller.CallCtx(addr, trace.Context{}, PingReq{})
	return mapChordErr(err)
}

// SuccessorList implements chord.Client.
func (c ChordClient) SuccessorList(addr string) ([]chord.Ref, error) {
	return c.refsCall(addr, SuccessorListReq{})
}

func (c ChordClient) refsCall(addr string, req any) ([]chord.Ref, error) {
	resp, _, err := c.Caller.CallCtx(addr, trace.Context{}, req)
	if err != nil {
		return nil, mapChordErr(err)
	}
	rr, ok := resp.(RefsResp)
	if !ok {
		return nil, BadRequest(resp)
	}
	return rr.Refs, nil
}

// mapChordErr restores sentinel chord errors that crossed the wire as
// strings so callers can errors.Is them, and classifies transport-level
// delivery failures as chord.ErrUnreachable so the routing layer can
// treat the target as suspect rather than the lookup as failed.
func mapChordErr(err error) error {
	if err == nil {
		return nil
	}
	var remote *RemoteError
	if errors.As(err, &remote) && strings.Contains(remote.Msg, chord.ErrNoPredecessor.Error()) {
		return chord.ErrNoPredecessor
	}
	if Retryable(err) {
		return fmt.Errorf("%w: %w", chord.ErrUnreachable, err)
	}
	return err
}

// DispatchChord routes a chord protocol request to h. It reports whether
// the request was a chord message; composite handlers (peers serve both
// chord and partition traffic) try it first and fall through otherwise.
func DispatchChord(h chord.Handler, req any) (resp any, handled bool, err error) {
	switch r := req.(type) {
	case SuccessorReq:
		ref, err := h.HandleSuccessor()
		return RefResp{Ref: ref}, true, err
	case PredecessorReq:
		ref, err := h.HandlePredecessor()
		return RefResp{Ref: ref}, true, err
	case ClosestPrecedingReq:
		ref, err := h.HandleClosestPreceding(r.ID)
		return RefResp{Ref: ref}, true, err
	case FindSuccessorReq:
		ref, err := h.HandleFindSuccessor(r.ID)
		return RefResp{Ref: ref}, true, err
	case NotifyReq:
		return OKResp{}, true, h.HandleNotify(r.Self)
	case PingReq:
		return OKResp{}, true, h.HandlePing()
	case SuccessorListReq:
		refs, err := h.HandleSuccessorList()
		return RefsResp{Refs: refs}, true, err
	case RouteTableReq:
		tbl, err := h.HandleRouteTable()
		return RouteTableResp(tbl), true, err
	default:
		return nil, false, nil
	}
}
