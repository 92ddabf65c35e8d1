package djoin

import (
	"fmt"

	"p2prange/internal/peer"
	"p2prange/internal/transport"
)

// Binary codecs for the join protocol, in the peer package's unboxed
// append/parse style. Tuples use the peer package's tuple encoding;
// session names and join keys decode uninterned, since every join
// brings new ones.
const (
	tagScatterReq  = transport.TagDjoinBase + 0
	tagCollectReq  = transport.TagDjoinBase + 1
	tagCollectResp = transport.TagDjoinBase + 2
	tagCleanupReq  = transport.TagDjoinBase + 3
)

func appendScatterReq(b []byte, r *ScatterReq) []byte {
	b = transport.AppendString(b, r.Session)
	b = transport.AppendUvarint(b, uint64(r.Side))
	b = transport.AppendString(b, r.Relation)
	b = transport.AppendUvarint(b, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		b = transport.AppendString(b, k)
	}
	return peer.AppendTuples(b, r.Tuples)
}

// parseScatterReq rejects a request whose key and tuple counts differ:
// the handler pairs Keys[i] with Tuples[i].
func parseScatterReq(c *transport.Cursor) (ScatterReq, error) {
	r := ScatterReq{
		Session:  c.BulkString(),
		Side:     Side(c.Uvarint()),
		Relation: c.String(),
	}
	n := c.Count()
	if n > 0 && c.Err == nil {
		r.Keys = make([]string, 0, transport.PreallocHint(n))
		for i := uint64(0); i < n && c.Err == nil; i++ {
			r.Keys = append(r.Keys, c.BulkString())
		}
	}
	r.Tuples = peer.ParseTuples(c)
	if c.Err == nil && len(r.Keys) != len(r.Tuples) {
		return r, fmt.Errorf("%w: scatter of %d keys and %d tuples", transport.ErrBadFrame, len(r.Keys), len(r.Tuples))
	}
	return r, c.Err
}

func appendCollectResp(b []byte, r *CollectResp) []byte {
	b = transport.AppendString(b, r.LeftRel)
	b = transport.AppendString(b, r.RightRel)
	b = peer.AppendTuples(b, r.Left)
	return peer.AppendTuples(b, r.Right)
}

func parseCollectResp(c *transport.Cursor) CollectResp {
	return CollectResp{
		LeftRel:  c.String(),
		RightRel: c.String(),
		Left:     peer.ParseTuples(c),
		Right:    peer.ParseTuples(c),
	}
}

func init() {
	transport.RegisterCodec(tagScatterReq, ScatterReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(ScatterReq); return appendScatterReq(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseScatterReq(c) })
	transport.RegisterCodec(tagCollectReq, CollectReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { return transport.AppendString(b, v.(CollectReq).Session) },
		func(c *transport.Cursor) (any, error) { return CollectReq{Session: c.BulkString()}, c.Err })
	transport.RegisterCodec(tagCollectResp, CollectResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { r := v.(CollectResp); return appendCollectResp(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseCollectResp(c), c.Err })
	transport.RegisterCodec(tagCleanupReq, CleanupReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { return transport.AppendString(b, v.(CleanupReq).Session) },
		func(c *transport.Cursor) (any, error) { return CleanupReq{Session: c.BulkString()}, c.Err })
}
