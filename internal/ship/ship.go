// Package ship is WAL-delta replica sync: an owner pushes the records
// written since its last round to each replica successor, instead of
// walking per-descriptor digests.
//
// The WAL (internal/wal) already gives every durable peer an
// authoritative, checksummed, position-addressable record stream; ship
// turns that stream into a replication transport. Two roles speak one
// request/response pair over the multiplexed binary wire protocol
// (tags at transport.TagShipBase):
//
//   - Pusher (pusher.go): owner side. It holds one cursor — (WAL file
//     sequence, byte offset) — per successor, reads the committed
//     records past it (wal.Log.ReadEntries) and ships their puts as an
//     ApplyReq. A retention pin keeps the WAL files behind each cursor
//     across a fold, within the ShipRetain budget. Digest anti-entropy
//     stays behind it as repair of last resort.
//   - Service (service.go): receiver side. It applies ApplyReq batches
//     into the local store and answers with its boot token. Registered
//     as a peer aux handler.
//
// The receiver takes the local store itself and nothing else: records
// apply through it and each batch passes its durability barrier
// (store.Store.Commit, a no-op when memory-only) before it is
// acknowledged.
//
// The pusher never blocks the owner's group-commit path: it reads only
// committed bytes, and a stalled receiver stalls only the owner's
// bounded per-round batch, never its WAL.
package ship

import (
	"fmt"

	"p2prange/internal/metrics"
	"p2prange/internal/transport"
)

// Wire tags. Like all tags these are protocol: never renumber.
// TagShipBase+0 … +7 once carried the log-shipping follower's
// subscribe, entries, snapshot-chunk and cursor-ack pairs. They stay
// retired, so a peer that still sends one gets an unknown-tag error
// rather than a misparse.
const (
	tagApplyReq  = transport.TagShipBase + 8
	tagApplyResp = transport.TagShipBase + 9
)

var (
	metApplied       = metrics.Default.Counter("ship.applied_records")
	metAppliedBytes  = metrics.Default.Counter("ship.applied_bytes")
	metPushRounds    = metrics.Default.Counter("ship.push_rounds")
	metPushRecords   = metrics.Default.Counter("ship.push_records")
	metPushBytes     = metrics.Default.Counter("ship.push_bytes")
	metPushResets    = metrics.Default.Counter("ship.push_resets")
	metPushFallbacks = metrics.Default.Counter("ship.push_fallbacks")
)

// ApplyReq pushes a batch of framed WAL records from an owner to a
// replica (the ship-first successor sync). The receiver applies OpPut
// records only — evictions and arc drops in the owner's log concern the
// owner's capacity and ownership, not the replica's, and applying them
// could delete the replica's own legitimate data.
type ApplyReq struct {
	Origin string
	Data   []byte
}

// ApplyResp reports how many records were applied and the receiver's
// boot token. A token change between rounds means the receiver
// restarted (losing everything shipped so far) — the pusher rebaselines
// and lets digest anti-entropy rebuild it.
type ApplyResp struct {
	Token   uint64
	Applied int
}

// appendData length-prefixes raw bytes; parseData copies them out of
// the frame buffer (the mux may reuse it for the next frame).
func appendData(b, data []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func parseData(c *transport.Cursor) []byte {
	v := c.Bytes()
	if c.Err != nil || len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

func appendApplyReq(b []byte, r *ApplyReq) []byte {
	b = transport.AppendString(b, r.Origin)
	return appendData(b, r.Data)
}

func parseApplyReq(c *transport.Cursor) ApplyReq {
	return ApplyReq{Origin: c.String(), Data: parseData(c)}
}

func appendApplyResp(b []byte, r *ApplyResp) []byte {
	b = transport.AppendUvarint(b, r.Token)
	return transport.AppendUvarint(b, uint64(r.Applied))
}

func parseApplyResp(c *transport.Cursor) ApplyResp {
	return ApplyResp{Token: c.Uvarint(), Applied: int(c.Uvarint())}
}

func init() {
	transport.RegisterCodec(tagApplyReq, ApplyReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(ApplyReq); return appendApplyReq(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseApplyReq(c), c.Err })
	transport.RegisterCodec(tagApplyResp, ApplyResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { r := v.(ApplyResp); return appendApplyResp(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseApplyResp(c), c.Err })
}

// badFrame wraps a shipping-protocol violation as a transport bad
// request, so hostile frames are rejected without tearing the
// connection down.
func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: ship: %s", transport.ErrBadRequest, fmt.Sprintf(format, args...))
}
