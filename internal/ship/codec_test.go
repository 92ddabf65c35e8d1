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

// FuzzShipFrameParse throws arbitrary bytes at the shipping-protocol
// parsers, and every request that decodes at the push receiver. The
// contract for hostile frames: latch an error or decode to a value that
// re-encodes equivalently — never panic, and never allocate beyond the
// actual bytes present (the data copies in parseData are bounded by the
// frame length because Cursor.Bytes returns a view, not a count-trusted
// allocation). The receiver walks a pushed batch's records itself, so
// the seeds carry every record op it must skip or apply, and torn
// batches it must refuse.
func FuzzShipFrameParse(f *testing.F) {
	put := wal.Record{Op: wal.OpPut, ID: 5, Part: store.Partition{
		Relation: "R", Attribute: "a", Holder: "h:1", Version: 2, Origin: "o:1"}}
	evict := wal.Record{Op: wal.OpEvict, ID: 5, Key: "R|a|0|0|h:1"}
	drop := wal.Record{Op: wal.OpDropArc, From: 7, To: 9}
	batch := wal.AppendFramed(nil, &put)
	mixed := wal.AppendFramed(wal.AppendFramed(append([]byte(nil), batch...), &evict), &drop)
	seeds := []any{
		ApplyReq{Origin: "o:1", Data: batch},
		ApplyReq{Origin: "o:1"}, // the pusher's empty token round
		ApplyReq{Origin: "o:1", Data: wal.AppendFramed(nil, &evict)},
		ApplyReq{Origin: "o:1", Data: wal.AppendFramed(nil, &drop)},
		ApplyReq{Origin: "o:1", Data: mixed},
		ApplyReq{Origin: "o:1", Data: mixed[:len(mixed)-1]}, // torn
		ApplyReq{Data: batch},
		ApplyResp{Token: 1 << 63, Applied: 64},
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
	protos := []any{ApplyReq{}, ApplyResp{}}
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
			if req, ok := v.(ApplyReq); ok {
				NewService(store.New()).Handle(req) // must refuse or apply, never panic
			}
		}
	})
}

// BenchmarkPushApply measures the push receiver's hot path:
// Service.Handle(ApplyReq) re-applying a 64-record batch — CRC walk,
// record decode and the store's first-wins rejection of descriptors it
// already holds — the work a replica does per pushed batch once it is
// in sync. `make benchguard` pins its allocations.
func BenchmarkPushApply(b *testing.B) {
	st := store.New()
	var batch []byte
	for i := 0; i < 64; i++ {
		r := wal.Record{Op: wal.OpPut, ID: store.ID(i % 8), Part: store.Partition{
			Relation: "R", Attribute: "a", Holder: "h:1", Version: 1, Origin: "o:1"}}
		r.Part.Range.Lo, r.Part.Range.Hi = int64(i), int64(i+10)
		batch = wal.AppendFramed(batch, &r)
		st.Put(r.ID, r.Part) // pre-apply: the benchmark measures re-apply
	}
	svc := NewService(st)
	var req any = ApplyReq{Origin: "o:1", Data: batch}
	if resp, _, err := svc.Handle(req); err != nil || resp.(ApplyResp).Applied != 64 {
		b.Fatalf("apply broken before measuring: resp=%v err=%v", resp, err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.Handle(req); err != nil {
			b.Fatal(err)
		}
	}
}
