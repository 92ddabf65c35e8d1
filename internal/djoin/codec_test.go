package djoin

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"p2prange/internal/peer"
	"p2prange/internal/relation"
	"p2prange/internal/transport"
)

// encodeMsg/decodeMsg drive the same append/parse pairs the transport
// registry dispatches, keyed by concrete type.
func encodeMsg(v any) ([]byte, error) {
	switch r := v.(type) {
	case ScatterReq:
		return appendScatterReq(nil, &r), nil
	case CollectReq:
		return transport.AppendString(nil, r.Session), nil
	case CollectResp:
		return appendCollectResp(nil, &r), nil
	case CleanupReq:
		return transport.AppendString(nil, r.Session), nil
	}
	return nil, fmt.Errorf("unknown message %T", v)
}

func decodeMsg(proto any, b []byte) (any, error) {
	c := transport.NewCursor(b)
	var v any
	switch proto.(type) {
	case ScatterReq:
		r, err := parseScatterReq(c)
		if err != nil {
			return nil, err
		}
		v = r
	case CollectReq:
		v = CollectReq{Session: c.BulkString()}
	case CollectResp:
		v = parseCollectResp(c)
	case CleanupReq:
		v = CleanupReq{Session: c.BulkString()}
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

var (
	tupleA = relation.Tuple{relation.IntVal(7), relation.StrVal("Ann"), relation.DateVal(1980, 2, 29)}
	tupleB = relation.Tuple{relation.IntVal(-1), relation.StrVal("")}

	codecSamples = []any{
		ScatterReq{Session: "join-1", Side: Right, Relation: "Patient",
			Keys: []string{EncodeKey(tupleA[0]), EncodeKey(tupleB[0])}, Tuples: []relation.Tuple{tupleA, tupleB}},
		CollectReq{Session: "join-1"},
		CollectResp{LeftRel: "Patient", RightRel: "Physician",
			Left: []relation.Tuple{tupleA, tupleA}, Right: []relation.Tuple{tupleB, tupleA}},
		CleanupReq{Session: "join-1"},
	}
)

// TestCodecRoundTrips drives every join codec through encode → decode →
// DeepEqual, including the zero value of each message.
func TestCodecRoundTrips(t *testing.T) {
	for _, in := range append(codecSamples, ScatterReq{}, CollectReq{}, CollectResp{}, CleanupReq{}) {
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

// TestScatterRejectsMisalignedKeys pins that a scatter whose key and
// tuple counts differ is a bad frame, not an index panic in the handler.
func TestScatterRejectsMisalignedKeys(t *testing.T) {
	in := ScatterReq{Session: "s", Relation: "R", Keys: []string{"k1", "k2"}, Tuples: []relation.Tuple{tupleA}}
	if _, err := decodeMsg(ScatterReq{}, appendScatterReq(nil, &in)); err == nil {
		t.Error("scatter with 2 keys and 1 tuple decoded")
	}
}

// TestCodecHostileCounts feeds key, tuple and value counts far beyond
// the payload: each must fail before allocating for the declared size.
func TestCodecHostileCounts(t *testing.T) {
	huge := func(prefix []byte, counts ...uint64) []byte {
		b := append([]byte(nil), prefix...)
		for _, x := range counts {
			b = transport.AppendUvarint(b, x)
		}
		return transport.AppendUvarint(b, 1<<40)
	}
	scatter := transport.AppendString(transport.AppendUvarint(transport.AppendString(nil, "s"), 0), "R")
	collect := transport.AppendString(transport.AppendString(nil, "L"), "R")
	cases := []struct {
		proto any
		data  []byte
	}{
		{ScatterReq{}, huge(scatter)},        // key count
		{ScatterReq{}, huge(scatter, 0)},     // tuple count
		{ScatterReq{}, huge(scatter, 0, 1)},  // values in a tuple
		{CollectResp{}, huge(collect)},       // left tuple count
		{CollectResp{}, huge(collect, 0)},    // right tuple count
		{CollectResp{}, huge(collect, 1, 1)}, // values in a tuple
		{CollectReq{}, huge(nil)},            // session length
		{CleanupReq{}, huge(nil)},            // session length
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

// FuzzDjoinParse throws arbitrary bytes at every join-protocol parser: a
// clean decode must re-encode to bytes that decode to the same value and
// re-encode identically; anything else must latch an error.
func FuzzDjoinParse(f *testing.F) {
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
	f.Add(peer.AppendTuples(nil, []relation.Tuple{tupleA}))
	protos := []any{ScatterReq{}, CollectReq{}, CollectResp{}, CleanupReq{}}
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
