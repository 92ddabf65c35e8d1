// Package ship is the log-shipping replication subsystem: followers
// catch up from an owner's write-ahead log instead of walking
// per-descriptor digests.
//
// The WAL (internal/wal) already gives every durable peer an
// authoritative, checksummed, position-addressable record stream; ship
// turns that stream into a replication transport. A follower holds a
// cursor — (WAL file sequence, byte offset) — into the owner's log and
// pulls the committed framed record bytes from there, applying them
// through the same replay path recovery uses, so a shipped store is
// byte-identical to one recovered locally from the owner's directory.
// A follower whose cursor pre-dates the oldest retained WAL file
// (compaction folded it away) is reseeded by streaming the sealed
// segment itself — chunked, CRC-verified, resumable — then tails the
// WAL from the seal point.
//
// Three roles, all speaking the same frames over the existing
// multiplexed binary wire protocol (tags at transport.TagShipBase):
//
//   - Service (service.go): owner side. Serves SubscribeReq /
//     EntriesReq / SnapshotChunkReq / CursorAckReq against its Log, and
//     applies ApplyReq record batches pushed by a remote owner into the
//     local store. Registered as a peer aux handler.
//   - Follower (follower.go): pull side. The subscribe → (snapshot) →
//     tail state machine behind `peerd -follow`.
//   - Pusher (pusher.go): replica sync. The owner streams its own WAL
//     delta to each successor (ApplyReq), demoting digest anti-entropy
//     to repair-of-last-resort.
//
// Both receiving roles take the local store itself and nothing else:
// records apply through it and each batch passes its durability barrier
// (store.Store.Commit, a no-op when memory-only) before it is
// acknowledged or the cursor moves past it.
//
// Flow control is pull-shaped everywhere: the owner never buffers for
// a follower and never blocks its group-commit path on one — a stalled
// follower simply stops pulling (or, on the push path, stalls only the
// owner's bounded per-round batch, never its WAL).
package ship

import (
	"fmt"
	"hash/crc32"

	"p2prange/internal/metrics"
	"p2prange/internal/transport"
	"p2prange/internal/wal"
)

// Wire tags. Like all tags these are protocol: never renumber.
const (
	tagSubscribeReq      = transport.TagShipBase + 0
	tagSubscribeResp     = transport.TagShipBase + 1
	tagEntriesReq        = transport.TagShipBase + 2
	tagEntriesResp       = transport.TagShipBase + 3
	tagSnapshotChunkReq  = transport.TagShipBase + 4
	tagSnapshotChunkResp = transport.TagShipBase + 5
	tagCursorAckReq      = transport.TagShipBase + 6
	tagCursorAckResp     = transport.TagShipBase + 7
	tagApplyReq          = transport.TagShipBase + 8
	tagApplyResp         = transport.TagShipBase + 9
)

var (
	metShipBatches   = metrics.Default.Counter("ship.entry_batches")
	metShipBytes     = metrics.Default.Counter("ship.entry_bytes")
	metSnapSeeds     = metrics.Default.Counter("ship.snapshot_seeds")
	metSnapChunks    = metrics.Default.Counter("ship.snapshot_chunks")
	metSnapBytes     = metrics.Default.Counter("ship.snapshot_bytes")
	metCursorResets  = metrics.Default.Counter("ship.cursor_resets")
	metAcks          = metrics.Default.Counter("ship.acks")
	metFollowers     = metrics.Default.Gauge("ship.followers")
	metApplied       = metrics.Default.Counter("ship.applied_records")
	metAppliedBytes  = metrics.Default.Counter("ship.applied_bytes")
	metSnapResumes   = metrics.Default.Counter("ship.snapshot_resumes")
	metSnapRestarts  = metrics.Default.Counter("ship.snapshot_restarts")
	metPushRounds    = metrics.Default.Counter("ship.push_rounds")
	metPushRecords   = metrics.Default.Counter("ship.push_records")
	metPushBytes     = metrics.Default.Counter("ship.push_bytes")
	metPushResets    = metrics.Default.Counter("ship.push_resets")
	metPushFallbacks = metrics.Default.Counter("ship.push_fallbacks")
	metMaxLagBytes   = metrics.Default.Gauge("ship.max_lag_bytes")
)

// SubscribeReq opens (or revalidates) a follower's stream at Cursor.
// The zero cursor asks for full history.
type SubscribeReq struct {
	Follower string
	Cursor   wal.Cursor
}

// SubscribeResp tells the follower how to proceed. Tail true: pull
// entries starting at Next; if Reseed is also true the follower's local
// state is NOT a prefix of the stream at Next and must be wiped first.
// Tail false: stream sealed segment SnapSeq (SnapSize bytes) via
// SnapshotChunkReq, apply it over a wiped store, then tail from the
// seal point Cursor{Seq: SnapSeq + 1}.
type SubscribeResp struct {
	Tail     bool
	Reseed   bool
	Next     wal.Cursor
	SnapSeq  uint64
	SnapSize int64
}

// EntriesReq pulls committed records from Cursor, up to ~MaxBytes. The
// cursor doubles as the follower's progress report: the owner advances
// this follower's retention pin to it.
type EntriesReq struct {
	Follower string
	Cursor   wal.Cursor
	MaxBytes uint32
}

// EntriesResp carries raw framed WAL records — the bytes on the
// owner's disk, verbatim — ending on a record boundary. Reset true
// means the cursor's history is gone (compaction + retention budget):
// resubscribe with the zero cursor and reseed. More true means the
// owner has more committed records past Next right now.
type EntriesResp struct {
	Data  []byte
	Next  wal.Cursor
	More  bool
	Reset bool
}

// SnapshotChunkReq pulls [Off, Off+MaxBytes) of sealed segment Seq.
type SnapshotChunkReq struct {
	Follower string
	Seq      uint64
	Off      int64
	MaxBytes uint32
}

// SnapshotChunkResp is one chunk of the segment file. CRC is CRC32-C
// over Data (transit check; the reassembled file is re-verified whole
// before any of it is applied). Gone true means compaction replaced
// the segment mid-stream: resubscribe and restart against the new one.
type SnapshotChunkResp struct {
	Data  []byte
	CRC   uint32
	Total int64
	Gone  bool
}

// CursorAckReq reports the follower's durably-applied position (moving
// its retention pin), or with Leave true unsubscribes it entirely.
type CursorAckReq struct {
	Follower string
	Cursor   wal.Cursor
	Leave    bool
}

// CursorAckResp acknowledges a CursorAckReq.
type CursorAckResp struct{}

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

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ChunkCRC is the per-chunk transit checksum (CRC32-C, the same
// polynomial as WAL records and segment footers).
func ChunkCRC(data []byte) uint32 { return crc32.Checksum(data, crcTable) }

func appendCursor(b []byte, c wal.Cursor) []byte {
	b = transport.AppendUvarint(b, c.Seq)
	return transport.AppendUvarint(b, uint64(c.Off))
}

func parseCursor(c *transport.Cursor) wal.Cursor {
	return wal.Cursor{Seq: c.Uvarint(), Off: int64(c.Uvarint())}
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

func appendSubscribeReq(b []byte, r *SubscribeReq) []byte {
	b = transport.AppendString(b, r.Follower)
	return appendCursor(b, r.Cursor)
}

func parseSubscribeReq(c *transport.Cursor) SubscribeReq {
	return SubscribeReq{Follower: c.String(), Cursor: parseCursor(c)}
}

func appendSubscribeResp(b []byte, r *SubscribeResp) []byte {
	b = transport.AppendBool(b, r.Tail)
	b = transport.AppendBool(b, r.Reseed)
	b = appendCursor(b, r.Next)
	b = transport.AppendUvarint(b, r.SnapSeq)
	return transport.AppendUvarint(b, uint64(r.SnapSize))
}

func parseSubscribeResp(c *transport.Cursor) SubscribeResp {
	return SubscribeResp{
		Tail:     c.Bool(),
		Reseed:   c.Bool(),
		Next:     parseCursor(c),
		SnapSeq:  c.Uvarint(),
		SnapSize: int64(c.Uvarint()),
	}
}

func appendEntriesReq(b []byte, r *EntriesReq) []byte {
	b = transport.AppendString(b, r.Follower)
	b = appendCursor(b, r.Cursor)
	return transport.AppendUvarint(b, uint64(r.MaxBytes))
}

func parseEntriesReq(c *transport.Cursor) EntriesReq {
	return EntriesReq{Follower: c.String(), Cursor: parseCursor(c), MaxBytes: uint32(c.Uvarint())}
}

func appendEntriesResp(b []byte, r *EntriesResp) []byte {
	b = appendData(b, r.Data)
	b = appendCursor(b, r.Next)
	b = transport.AppendBool(b, r.More)
	return transport.AppendBool(b, r.Reset)
}

func parseEntriesResp(c *transport.Cursor) EntriesResp {
	return EntriesResp{
		Data:  parseData(c),
		Next:  parseCursor(c),
		More:  c.Bool(),
		Reset: c.Bool(),
	}
}

func appendSnapshotChunkReq(b []byte, r *SnapshotChunkReq) []byte {
	b = transport.AppendString(b, r.Follower)
	b = transport.AppendUvarint(b, r.Seq)
	b = transport.AppendUvarint(b, uint64(r.Off))
	return transport.AppendUvarint(b, uint64(r.MaxBytes))
}

func parseSnapshotChunkReq(c *transport.Cursor) SnapshotChunkReq {
	return SnapshotChunkReq{
		Follower: c.String(),
		Seq:      c.Uvarint(),
		Off:      int64(c.Uvarint()),
		MaxBytes: uint32(c.Uvarint()),
	}
}

func appendSnapshotChunkResp(b []byte, r *SnapshotChunkResp) []byte {
	b = appendData(b, r.Data)
	b = transport.AppendUvarint(b, uint64(r.CRC))
	b = transport.AppendUvarint(b, uint64(r.Total))
	return transport.AppendBool(b, r.Gone)
}

func parseSnapshotChunkResp(c *transport.Cursor) SnapshotChunkResp {
	return SnapshotChunkResp{
		Data:  parseData(c),
		CRC:   uint32(c.Uvarint()),
		Total: int64(c.Uvarint()),
		Gone:  c.Bool(),
	}
}

func appendCursorAckReq(b []byte, r *CursorAckReq) []byte {
	b = transport.AppendString(b, r.Follower)
	b = appendCursor(b, r.Cursor)
	return transport.AppendBool(b, r.Leave)
}

func parseCursorAckReq(c *transport.Cursor) CursorAckReq {
	return CursorAckReq{Follower: c.String(), Cursor: parseCursor(c), Leave: c.Bool()}
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
	transport.RegisterCodec(tagSubscribeReq, SubscribeReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(SubscribeReq); return appendSubscribeReq(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseSubscribeReq(c), c.Err })
	transport.RegisterCodec(tagSubscribeResp, SubscribeResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { r := v.(SubscribeResp); return appendSubscribeResp(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseSubscribeResp(c), c.Err })
	transport.RegisterCodec(tagEntriesReq, EntriesReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(EntriesReq); return appendEntriesReq(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseEntriesReq(c), c.Err })
	transport.RegisterCodec(tagEntriesResp, EntriesResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { r := v.(EntriesResp); return appendEntriesResp(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseEntriesResp(c), c.Err })
	transport.RegisterCodec(tagSnapshotChunkReq, SnapshotChunkReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(SnapshotChunkReq); return appendSnapshotChunkReq(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseSnapshotChunkReq(c), c.Err })
	transport.RegisterCodec(tagSnapshotChunkResp, SnapshotChunkResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { r := v.(SnapshotChunkResp); return appendSnapshotChunkResp(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseSnapshotChunkResp(c), c.Err })
	transport.RegisterCodec(tagCursorAckReq, CursorAckReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(CursorAckReq); return appendCursorAckReq(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseCursorAckReq(c), c.Err })
	transport.RegisterCodec(tagCursorAckResp, CursorAckResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { return b },
		func(c *transport.Cursor) (any, error) { return CursorAckResp{}, c.Err })
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
