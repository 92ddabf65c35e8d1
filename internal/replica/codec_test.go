package replica

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"p2prange/internal/chord"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// encodeMsg/decodeMsg drive the same append/parse pairs the transport
// registry dispatches, keyed by concrete type.
func encodeMsg(v any) ([]byte, error) {
	switch r := v.(type) {
	case SyncReq:
		return appendDigest(nil, r.Digest), nil
	case SyncResp:
		return appendMissing(nil, r.Missing), nil
	case LoadReq:
		return appendLoadReq(nil, &r), nil
	case LoadResp:
		return appendLoadResp(nil, &r), nil
	}
	return nil, fmt.Errorf("unknown message %T", v)
}

func decodeMsg(proto any, b []byte) (any, error) {
	c := transport.NewCursor(b)
	var v any
	switch proto.(type) {
	case SyncReq:
		v = SyncReq{Digest: parseDigest(c)}
	case SyncResp:
		v = SyncResp{Missing: parseMissing(c)}
	case LoadReq:
		var r LoadReq
		parseLoadReq(c, &r)
		v = r
	case LoadResp:
		var r LoadResp
		parseLoadResp(c, &r)
		v = r
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

var codecSamples = []any{
	SyncReq{Digest: store.Digest{
		7:       {"R|a|1-5|h:1": 3, "R|a|2-9|h:2": 1},
		1 << 31: {"S|b|0-0|h:3": 1<<64 - 1},
		0:       {},
	}},
	SyncResp{Missing: map[uint32][]string{9: {"R|a|1-5|h:1", "R|a|2-9|h:2"}, 2: {}}},
	LoadReq{},
	LoadReq{IDs: []uint32{4294967295, 0, 77}},
	LoadResp{Load: -3},
	LoadResp{Load: 1 << 40, Fanouts: []int{6, 3, -1}},
	LoadResp{Load: 9, Fanouts: []int{3}, Successors: []chord.Ref{
		{ID: 0x7dceec98, Addr: "10.0.0.0:4000"}, {ID: 0xffffffff, Addr: "[::1]:7001"}, {},
	}},
}

// TestCodecRoundTrips drives every replica codec through encode →
// decode → DeepEqual, including empty maps (nil on the wire side) and
// empty inner buckets (kept non-nil).
func TestCodecRoundTrips(t *testing.T) {
	for _, in := range append(codecSamples, SyncReq{}, SyncResp{}, LoadReq{}, LoadResp{}) {
		b, err := encodeMsg(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeMsg(in, b)
		if err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("%T round trip: got %+v err %v, want %+v", in, out, err, in)
		}
	}
}

// TestDigestEncodingIsCanonical pins sorted-key map encoding: equal
// digests built in different insertion orders encode to equal bytes.
func TestDigestEncodingIsCanonical(t *testing.T) {
	a, b := store.Digest{}, store.Digest{}
	for i := uint32(0); i < 64; i++ {
		a[i] = map[string]uint64{fmt.Sprint("k", i): uint64(i), fmt.Sprint("j", i): 1}
		b[63-i] = map[string]uint64{fmt.Sprint("j", 63-i): 1, fmt.Sprint("k", 63-i): uint64(63 - i)}
	}
	if string(appendDigest(nil, a)) != string(appendDigest(nil, b)) {
		t.Error("equal digests encoded differently")
	}
}

// TestCodecHostileCounts feeds map, key and digest-row counts far beyond
// the payload: each must fail with ErrBadFrame before allocating for
// the declared size.
func TestCodecHostileCounts(t *testing.T) {
	huge := func(prefix ...uint64) []byte {
		var b []byte
		for _, x := range prefix {
			b = transport.AppendUvarint(b, x)
		}
		return transport.AppendUvarint(b, 1<<40)
	}
	cases := []struct {
		proto any
		data  []byte
	}{
		{SyncReq{}, huge()},        // bucket count
		{SyncReq{}, huge(1, 7)},    // digest rows in one bucket
		{SyncResp{}, huge()},       // bucket count
		{SyncResp{}, huge(1, 7)},   // keys in one bucket
		{SyncReq{}, huge(2, 7, 0)}, // second bucket truncated
		{LoadReq{}, huge()},        // identifier count
		{LoadResp{}, huge(0)},      // fan-out count
		{LoadResp{}, huge(0, 0)},   // successor count
	}
	for i, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeMsg(tc.proto, tc.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("case %d (%T): hostile count decoded", i, tc.proto)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("case %d (%T): rejecting a hostile count allocated %d bytes", i, tc.proto, grew)
		}
	}
}

// FuzzReplicaParse throws arbitrary bytes at every replica-protocol
// parser: a clean decode must re-encode to bytes that decode to the same
// value and re-encode identically; anything else must latch an error.
func FuzzReplicaParse(f *testing.F) {
	for _, s := range codecSamples {
		b, err := encodeMsg(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if len(b) > 2 {
			f.Add(b[:len(b)/2])
		}
	}
	f.Add(transport.AppendUvarint(nil, 1<<40))
	protos := []any{SyncReq{}, SyncResp{}, LoadReq{}, LoadResp{}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		for _, proto := range protos {
			v, err := decodeMsg(proto, data)
			if err != nil {
				continue
			}
			b2, err := encodeMsg(v)
			if err != nil {
				t.Fatalf("%T: decoded value failed to encode: %v", proto, err)
			}
			v2, err := decodeMsg(proto, b2)
			if err != nil {
				t.Fatalf("%T: re-encoded message failed to parse: %v", proto, err)
			}
			if !reflect.DeepEqual(v, v2) {
				t.Fatalf("%T: value changed across a round trip:\nfirst:  %+v\nsecond: %+v", proto, v, v2)
			}
			if b3, _ := encodeMsg(v2); string(b2) != string(b3) {
				t.Fatalf("%T: encoding not stable across a round trip", proto)
			}
		}
	})
}

// BenchmarkCodecLoad measures one owner's load round trip on the wire:
// encode and decode a LoadReq for a lookup's five buckets, then its
// LoadResp with five fan-outs and a successor list. Rank pays it once
// per distinct owner of a load-aware lookup (gauge-only requests and
// replies are a prefix of the same work). Like BenchmarkCodecProbe it
// decodes into reused destinations, and the interner absorbs the
// successor addresses; `make benchguard` asserts 0 allocs/op.
func BenchmarkCodecLoad(b *testing.B) {
	req := LoadReq{IDs: []uint32{0xdeadbeef, 7, 1 << 31, 42, 9}}
	resp := LoadResp{Load: 1234, Fanouts: []int{3, 3, 6, 3, 3}, Successors: []chord.Ref{
		{ID: 0x0b3371f0, Addr: "10.0.0.2:4000"},
		{ID: 0x534daff3, Addr: "10.0.0.4:4000"},
		{ID: 0x90d9e78d, Addr: "10.0.0.3:4000"},
		{ID: 0xa64194af, Addr: "10.0.0.7:4000"},
	}}
	buf := appendLoadReq(nil, &req)
	cur := transport.NewCursor(buf)
	var outReq LoadReq
	if err := parseLoadReq(cur, &outReq); err != nil || !reflect.DeepEqual(outReq, req) {
		b.Fatalf("request round trip broken before measuring: %+v err %v", outReq, err)
	}
	buf = appendLoadResp(buf[:0], &resp)
	cur.Reset(buf)
	var outResp LoadResp
	if err := parseLoadResp(cur, &outResp); err != nil || !reflect.DeepEqual(outResp, resp) {
		b.Fatalf("response round trip broken before measuring: %+v err %v", outResp, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendLoadReq(buf[:0], &req)
		cur.Reset(buf)
		if err := parseLoadReq(cur, &outReq); err != nil || outReq.IDs[4] != req.IDs[4] {
			b.Fatal("request round trip broken")
		}
		buf = appendLoadResp(buf[:0], &resp)
		cur.Reset(buf)
		if err := parseLoadResp(cur, &outResp); err != nil || outResp.Successors[3] != resp.Successors[3] {
			b.Fatal("response round trip broken")
		}
	}
}
