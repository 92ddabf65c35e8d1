package ship

import (
	"fmt"
	"testing"

	"p2prange/internal/store"
	"p2prange/internal/transport"
	"p2prange/internal/wal"
)

// encodeMsg/decodeMsg drive the same append/parse pairs the transport
// registry dispatches, keyed by concrete type.
func encodeMsg(v any) ([]byte, error) {
	switch r := v.(type) {
	case SubscribeReq:
		return appendSubscribeReq(nil, &r), nil
	case SubscribeResp:
		return appendSubscribeResp(nil, &r), nil
	case EntriesReq:
		return appendEntriesReq(nil, &r), nil
	case EntriesResp:
		return appendEntriesResp(nil, &r), nil
	case SnapshotChunkReq:
		return appendSnapshotChunkReq(nil, &r), nil
	case SnapshotChunkResp:
		return appendSnapshotChunkResp(nil, &r), nil
	case CursorAckReq:
		return appendCursorAckReq(nil, &r), nil
	case CursorAckResp:
		return nil, nil
	case ApplyReq:
		return appendApplyReq(nil, &r), nil
	case ApplyResp:
		return appendApplyResp(nil, &r), nil
	}
	return nil, fmt.Errorf("unknown message %T", v)
}

func decodeMsg(proto any, b []byte) (any, error) {
	c := transport.NewCursor(b)
	var v any
	switch proto.(type) {
	case SubscribeReq:
		v = parseSubscribeReq(c)
	case SubscribeResp:
		v = parseSubscribeResp(c)
	case EntriesReq:
		v = parseEntriesReq(c)
	case EntriesResp:
		v = parseEntriesResp(c)
	case SnapshotChunkReq:
		v = parseSnapshotChunkReq(c)
	case SnapshotChunkResp:
		v = parseSnapshotChunkResp(c)
	case CursorAckReq:
		v = parseCursorAckReq(c)
	case CursorAckResp:
		v = CursorAckResp{}
	case ApplyReq:
		v = parseApplyReq(c)
	case ApplyResp:
		v = parseApplyResp(c)
	default:
		return nil, fmt.Errorf("unknown message %T", proto)
	}
	if c.Err != nil {
		return nil, c.Err
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %T", c.Len(), proto)
	}
	return v, nil
}

// FuzzShipFrameParse throws arbitrary bytes at every shipping-protocol
// parser. The contract for hostile frames: latch an error or decode to
// a value that re-encodes equivalently — never panic, and never
// allocate beyond the actual bytes present (the data copies in
// parseData are bounded by the frame length because Cursor.Bytes
// returns a view, not a count-trusted allocation).
func FuzzShipFrameParse(f *testing.F) {
	batch := wal.AppendFramed(nil, &wal.Record{Op: wal.OpPut, ID: 5, Part: store.Partition{
		Relation: "R", Attribute: "a", Holder: "h:1", Version: 2, Origin: "o:1"}})
	seeds := []any{
		SubscribeReq{Follower: "f:1", Cursor: wal.Cursor{Seq: 2, Off: 64}},
		SubscribeResp{Tail: true, Next: wal.Cursor{Seq: 2, Off: 64}, SnapSeq: 1, SnapSize: 4096},
		EntriesReq{Follower: "f:1", Cursor: wal.Cursor{Seq: 1, Off: 9}, MaxBytes: 65536},
		EntriesResp{Data: batch, Next: wal.Cursor{Seq: 1, Off: 99}, More: true},
		SnapshotChunkReq{Follower: "f:1", Seq: 3, Off: 8192, MaxBytes: 1024},
		SnapshotChunkResp{Data: []byte{9, 8, 7}, CRC: ChunkCRC([]byte{9, 8, 7}), Total: 777},
		CursorAckReq{Follower: "f:1", Cursor: wal.Cursor{Seq: 4, Off: 2}},
		ApplyReq{Origin: "o:1", Data: batch},
		ApplyResp{Token: 3, Applied: 9},
	}
	for _, s := range seeds {
		b, err := encodeMsg(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if len(b) > 2 {
			f.Add(b[:len(b)/2])
		}
	}
	protos := []any{
		SubscribeReq{}, SubscribeResp{}, EntriesReq{}, EntriesResp{},
		SnapshotChunkReq{}, SnapshotChunkResp{}, CursorAckReq{},
		ApplyReq{}, ApplyResp{},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		for _, proto := range protos {
			v, err := decodeMsg(proto, data)
			if err != nil {
				continue
			}
			// Clean decodes must re-encode to something that decodes to
			// the same value (canonical-form check; the encoding is not
			// injective over inputs, only over values).
			b2, err := encodeMsg(v)
			if err != nil {
				t.Fatalf("%T: decoded value failed to encode: %v", proto, err)
			}
			v2, err := decodeMsg(proto, b2)
			if err != nil {
				t.Fatalf("%T: re-encoded frame failed to parse: %v", proto, err)
			}
			b3, err := encodeMsg(v2)
			if err != nil || string(b2) != string(b3) {
				t.Fatalf("%T: encoding not stable across a round trip", proto)
			}
		}
	})
}

// BenchmarkShipApply measures the follower's entry-apply hot path: CRC
// walk + record decode + idempotent store re-apply of one shipped
// batch through wal.StoreRestorer (the follower's applier), the work
// done per byte for the whole catch-up stream. `make benchguard`
// asserts 0 allocs/op: parsing interns strings, and re-applying an
// already-present descriptor takes the first-wins rejection path
// without copying.
func BenchmarkShipApply(b *testing.B) {
	st := store.New()
	var batch []byte
	for i := 0; i < 64; i++ {
		r := wal.Record{Op: wal.OpPut, ID: store.ID(i % 8), Part: store.Partition{
			Relation: "R", Attribute: "a", Holder: "h:1", Version: 1, Origin: "o:1"}}
		r.Part.Range.Lo, r.Part.Range.Hi = int64(i), int64(i+10)
		batch = wal.AppendFramed(batch, &r)
		st.Put(r.ID, r.Part) // pre-apply: the benchmark measures re-apply
	}
	apply := wal.StoreRestorer(st)
	w := wal.NewWalker()
	if n, err := w.Walk(batch, apply); err != nil || n != len(batch) {
		b.Fatalf("walk broken before measuring: n=%d err=%v", n, err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Walk(batch, apply); err != nil {
			b.Fatal(err)
		}
	}
}
