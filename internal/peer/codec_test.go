package peer

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

var codecPartition = store.Partition{
	Relation:  "Patient",
	Attribute: "age",
	Range:     rangeset.Range{Lo: -12, Hi: 88},
	Holder:    "10.1.2.3:4000",
	Version:   9,
	Origin:    "10.9.9.9:4000",
}

// TestUnboxedCodecRoundTrips drives every unboxed append/parse pair
// through encode → decode → DeepEqual, including the compact encodings
// (Found=false responses are a single byte; empty batches carry no ids).
func TestUnboxedCodecRoundTrips(t *testing.T) {
	t.Run("FindBestRespFound", func(t *testing.T) {
		in := FindBestResp{Found: true, Match: store.Match{Partition: codecPartition, Score: 0.625}}
		c := transport.NewCursor(appendFindBestResp(nil, &in))
		out := parseFindBestResp(c)
		if c.Err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("round trip: got %+v err %v, want %+v", out, c.Err, in)
		}
	})
	t.Run("FindBestRespNotFound", func(t *testing.T) {
		in := FindBestResp{Found: false}
		b := appendFindBestResp(nil, &in)
		if len(b) != 1 {
			t.Errorf("empty-bucket response encoded as %d bytes, want 1", len(b))
		}
		c := transport.NewCursor(b)
		out := parseFindBestResp(c)
		if c.Err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("round trip: got %+v err %v, want %+v", out, c.Err, in)
		}
	})
	t.Run("StoreReq", func(t *testing.T) {
		in := StoreReq{ID: 7, Partition: codecPartition, Replica: true}
		c := transport.NewCursor(appendStoreReq(nil, &in))
		out := parseStoreReq(c)
		if c.Err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("round trip: got %+v err %v, want %+v", out, c.Err, in)
		}
	})
	t.Run("FetchDataReq", func(t *testing.T) {
		in := FetchDataReq{Relation: "Patient", Attribute: "age", Range: rangeset.Range{Lo: 0, Hi: 99}}
		c := transport.NewCursor(appendFetchDataReq(nil, &in))
		out := parseFetchDataReq(c)
		if c.Err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("round trip: got %+v err %v, want %+v", out, c.Err, in)
		}
	})
	t.Run("BatchReq", func(t *testing.T) {
		in := FindBestBatchReq{Relation: "Patient", Attribute: "age",
			Range: rangeset.Range{Lo: 4, Hi: 13}, Measure: store.MatchJaccard,
			IDs: []uint32{0, 1, 1 << 31, 4294967295}}
		out, err := decodeBatchReq(appendBatchReq(nil, &in))
		if err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("round trip: got %+v err %v, want %+v", out, err, in)
		}
	})
	t.Run("BatchReqReusesDestination", func(t *testing.T) {
		// A destination kept across frames takes every field of the new
		// frame, and its IDs shrink and grow within the old backing array.
		dst := FindBestBatchReq{Relation: "old", IDs: make([]uint32, 5, 8)}
		backing := &dst.IDs[:1][0]
		for _, in := range []FindBestBatchReq{
			{Relation: "Patient", Attribute: "age", Range: rangeset.Range{Lo: 1, Hi: 2}, IDs: []uint32{7, 8}},
			{Relation: "Doctor", Attribute: "id", Measure: store.MatchContainment, IDs: []uint32{1, 2, 3, 4, 5, 6, 7, 8}},
		} {
			if err := parseBatchReq(transport.NewCursor(appendBatchReq(nil, &in)), &dst); err != nil || !reflect.DeepEqual(in, dst) {
				t.Errorf("round trip: got %+v err %v, want %+v", dst, err, in)
			}
			if &dst.IDs[:1][0] != backing {
				t.Error("decode reallocated IDs despite spare capacity")
			}
		}
	})
	t.Run("BatchReqEmpty", func(t *testing.T) {
		in := FindBestBatchReq{Relation: "r", Attribute: "a"}
		out, err := decodeBatchReq(appendBatchReq(nil, &in))
		if err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("round trip: got %+v err %v, want %+v", out, err, in)
		}
	})
	t.Run("BatchResp", func(t *testing.T) {
		in := FindBestBatchResp{Results: []FindBestResp{
			{Found: true, Match: store.Match{Partition: codecPartition, Score: 1}},
			{Found: false},
			{Found: true, Match: store.Match{Partition: codecPartition, Score: 0.25}},
		}}
		out, err := parseBatchResp(transport.NewCursor(appendBatchResp(nil, &in)))
		if err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("round trip: got %+v err %v, want %+v", out, err, in)
		}
	})
}

// TestBatchParseGuards pins the denial-of-service defenses in the batch
// decoders: a declared element count larger than the remaining payload
// must fail before allocating, not after.
func TestBatchParseGuards(t *testing.T) {
	req := appendBatchReq(nil, &FindBestBatchReq{Relation: "r", Attribute: "a"})
	req[len(req)-1] = 0xff // rewrite id count to an overlong varint prefix
	req = append(req, 0xff, 0xff, 0xff, 0xff, 0x0f)
	if _, err := decodeBatchReq(req); err == nil {
		t.Error("batch req with absurd id count parsed")
	}

	resp := transport.AppendUvarint(nil, 1<<40) // count with no payload behind it
	if _, err := parseBatchResp(transport.NewCursor(resp)); err == nil {
		t.Error("batch resp with absurd result count parsed")
	}
}

// decodeBatchReq decodes one batch request into a fresh destination.
func decodeBatchReq(b []byte) (FindBestBatchReq, error) {
	var r FindBestBatchReq
	err := parseBatchReq(transport.NewCursor(b), &r)
	return r, err
}

// FuzzFindBestReqParse throws arbitrary bytes at the probe-request
// parser — FindBestBatchReq's, the one message every probe travels in:
// anything that decodes cleanly must re-encode to an equivalent request;
// anything else must latch an error without panicking.
func FuzzFindBestReqParse(f *testing.F) {
	seed := FindBestBatchReq{Relation: "Patient", Attribute: "age",
		Range: rangeset.Range{Lo: 2, Hi: 11}, Measure: store.MatchContainment,
		IDs: []uint32{99, 1 << 31}}
	payload := appendBatchReq(nil, &seed)
	f.Add(payload)
	for cut := 0; cut < len(payload); cut++ {
		f.Add(payload[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		req, err := decodeBatchReq(data)
		if err != nil {
			return
		}
		req2, err := decodeBatchReq(appendBatchReq(nil, &req))
		if err != nil {
			t.Fatalf("re-encoded request failed to parse: %v", err)
		}
		if !reflect.DeepEqual(req, req2) {
			t.Errorf("request changed across a round trip:\nfirst:  %+v\nsecond: %+v", req, req2)
		}
	})
}

// BenchmarkCodecProbe measures the steady-state encode+decode cost of
// one probe request — a one-probe FindBestBatchReq, the message every
// probe of a load-aware lookup travels in. `make benchguard` asserts
// this stays at 0 allocs/op: the buffer, cursor and destination request
// are reused, and the interner absorbs the string fields.
func BenchmarkCodecProbe(b *testing.B) {
	req := FindBestBatchReq{Relation: "Patient", Attribute: "age",
		Range: rangeset.Range{Lo: 40, Hi: 49}, Measure: store.MatchContainment,
		IDs: []uint32{77}}
	buf := appendBatchReq(nil, &req)
	cur := transport.NewCursor(buf)
	var out FindBestBatchReq
	if err := parseBatchReq(cur, &out); err != nil || !reflect.DeepEqual(req, out) {
		b.Fatalf("round trip broken before measuring: %+v err %v", out, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendBatchReq(buf[:0], &req)
		cur.Reset(buf)
		if err := parseBatchReq(cur, &out); err != nil || out.IDs[0] != req.IDs[0] {
			b.Fatal("round trip broken")
		}
	}
}

// encodeBulk/decodeBulk drive the bulk-message append/parse pairs the
// transport registry dispatches, keyed by concrete type.
func encodeBulk(v any) ([]byte, error) {
	switch r := v.(type) {
	case FetchDataResp:
		return appendFetchDataResp(nil, &r), nil
	case HandoffReq:
		return appendBuckets(nil, r.Buckets), nil
	case TransferArcReq:
		return appendTransferArcReq(nil, &r), nil
	case TransferArcResp:
		return appendBuckets(nil, r.Buckets), nil
	}
	return nil, fmt.Errorf("unknown message %T", v)
}

func decodeBulk(proto any, b []byte) (any, error) {
	c := transport.NewCursor(b)
	var v any
	switch proto.(type) {
	case FetchDataResp:
		v = parseFetchDataResp(c)
	case HandoffReq:
		v = HandoffReq{Buckets: parseBuckets(c)}
	case TransferArcReq:
		v = parseTransferArcReq(c)
	case TransferArcResp:
		v = TransferArcResp{Buckets: parseBuckets(c)}
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

var bulkSamples = []any{
	FetchDataResp{Found: true, Data: wireRelation{Relation: "Patient", Tuples: []relation.Tuple{
		{relation.IntVal(1), relation.StrVal("Ann"), relation.IntVal(-42), relation.DateVal(1971, 3, 9)},
		{relation.IntVal(0), relation.StrVal(""), relation.IntVal(1 << 62), relation.DateVal(1960, 1, 1)},
		{{Kind: relation.TString, Int: 7, Str: "both fields set"}},
	}}},
	HandoffReq{Buckets: map[uint32][]store.Partition{
		3:       {codecPartition, {Relation: "R", Attribute: "a", Holder: "h:1", Version: 1}},
		1 << 31: {codecPartition},
		9:       {},
	}},
	TransferArcReq{From: 1, To: 4294967295},
	TransferArcResp{Buckets: map[uint32][]store.Partition{0: {codecPartition}}},
}

// TestBulkCodecRoundTrips drives the bulk codecs (fetched tuples, handoff
// messages) through encode → decode → DeepEqual: every Value kind and
// field survives, empty messages decode to their zero values, and an
// empty bucket stays present.
func TestBulkCodecRoundTrips(t *testing.T) {
	for _, in := range append(bulkSamples, FetchDataResp{}, HandoffReq{}, TransferArcReq{}, TransferArcResp{}) {
		b, err := encodeBulk(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeBulk(in, b)
		if err != nil || !reflect.DeepEqual(in, out) {
			t.Errorf("%T round trip: got %+v err %v, want %+v", in, out, err, in)
		}
	}
}

// TestBucketEncodingIsCanonical pins sorted-key map encoding: equal
// bucket maps built in different insertion orders encode identically.
func TestBucketEncodingIsCanonical(t *testing.T) {
	a, b := map[uint32][]store.Partition{}, map[uint32][]store.Partition{}
	for i := uint32(0); i < 64; i++ {
		a[i] = []store.Partition{codecPartition}
		b[63-i] = []store.Partition{codecPartition}
	}
	if string(appendBuckets(nil, a)) != string(appendBuckets(nil, b)) {
		t.Error("equal bucket maps encoded differently")
	}
}

// TestBulkCodecHostileCounts feeds tuple, value and bucket counts far
// beyond the payload: each must fail before allocating for the declared
// size.
func TestBulkCodecHostileCounts(t *testing.T) {
	huge := func(prefix []byte, counts ...uint64) []byte {
		b := append([]byte(nil), prefix...)
		for _, x := range counts {
			b = transport.AppendUvarint(b, x)
		}
		return transport.AppendUvarint(b, 1<<40)
	}
	fetch := transport.AppendString([]byte{1}, "Patient") // Found, Relation
	cases := []struct {
		proto any
		data  []byte
	}{
		{FetchDataResp{}, huge(fetch)},          // tuple count
		{FetchDataResp{}, huge(fetch, 1)},       // values in a tuple
		{FetchDataResp{}, huge(fetch, 2, 0)},    // second tuple's values
		{HandoffReq{}, huge(nil)},               // bucket count
		{HandoffReq{}, huge(nil, 1, 5)},         // partitions in a bucket
		{TransferArcResp{}, huge(nil, 1, 5)},    // partitions in a bucket
		{FetchDataResp{}, huge(fetch, 1, 1, 2)}, // string value length
	}
	for i, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeBulk(tc.proto, tc.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("case %d (%T): hostile count decoded", i, tc.proto)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("case %d (%T): rejecting a hostile count allocated %d bytes", i, tc.proto, grew)
		}
	}
}

// TestTupleStringsSkipInterner decodes more distinct tuple strings than
// the per-connection interner holds, then checks that a name first seen
// after them is still interned (decodes without allocating): bulk data
// must not fill the interner.
func TestTupleStringsSkipInterner(t *testing.T) {
	var tuples []relation.Tuple
	for i := 0; i < 5000; i++ {
		tuples = append(tuples, relation.Tuple{relation.StrVal(fmt.Sprintf("name-%05d", i))})
	}
	resp := FetchDataResp{Found: true, Data: wireRelation{Relation: "Patient", Tuples: tuples}}
	c := transport.NewCursor(appendFetchDataResp(nil, &resp))
	if out := parseFetchDataResp(c); c.Err != nil || len(out.Data.Tuples) != len(tuples) {
		t.Fatalf("decode: %d tuples, err %v", len(out.Data.Tuples), c.Err)
	}
	name := transport.AppendString(nil, "late-name")
	c.Reset(name)
	_ = c.String()
	if allocs := testing.AllocsPerRun(10, func() { c.Reset(name); _ = c.String() }); allocs != 0 {
		t.Errorf("a name decoded after bulk data allocates %.0f times, want 0 (interner full?)", allocs)
	}
}

// FuzzBulkParse throws arbitrary bytes at the bulk-message parsers: a
// clean decode must re-encode to bytes that decode to the same value and
// re-encode identically; anything else must latch an error.
func FuzzBulkParse(f *testing.F) {
	for _, s := range bulkSamples {
		b, err := encodeBulk(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for _, cut := range []int{1, len(b) / 3, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut])
		}
	}
	protos := []any{FetchDataResp{}, HandoffReq{}, TransferArcReq{}, TransferArcResp{}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		for _, proto := range protos {
			v, err := decodeBulk(proto, data)
			if err != nil {
				continue
			}
			b2, err := encodeBulk(v)
			if err != nil {
				t.Fatalf("%T: decoded value failed to encode: %v", proto, err)
			}
			v2, err := decodeBulk(proto, b2)
			if err != nil {
				t.Fatalf("%T: re-encoded message failed to parse: %v", proto, err)
			}
			if !reflect.DeepEqual(v, v2) {
				t.Fatalf("%T: value changed across a round trip:\nfirst:  %+v\nsecond: %+v", proto, v, v2)
			}
			if b3, _ := encodeBulk(v2); string(b2) != string(b3) {
				t.Fatalf("%T: encoding not stable across a round trip", proto)
			}
		}
	})
}

// TestParseTuplesSlabWindows decodes tuples of mixed arities — empty
// ones, one wider than PreallocHint allows a chunk, and ones that spill
// into a fresh chunk — and checks each is its own window: equal to what
// was encoded, and appending to one never writes into the next. Every
// truncation of the payload must then fail cleanly.
func TestParseTuplesSlabWindows(t *testing.T) {
	wide := make(relation.Tuple, 1500)
	for i := range wide {
		wide[i] = relation.IntVal(int64(i))
	}
	in := []relation.Tuple{
		{relation.IntVal(1), relation.StrVal("Ann"), relation.IntVal(42)},
		nil,
		{relation.StrVal("x")},
		wide,
		{relation.DateVal(1971, 3, 9), relation.IntVal(-7)},
		nil,
		{relation.IntVal(1 << 62), relation.StrVal(""), relation.StrVal("tail"), relation.IntVal(0)},
	}
	for i := 0; i < 600; i++ {
		in = append(in, relation.Tuple{relation.IntVal(int64(i)), relation.StrVal(fmt.Sprint(i))})
	}
	b := AppendTuples(nil, in)
	c := transport.NewCursor(b)
	out := ParseTuples(c)
	if c.Err != nil || c.Len() != 0 {
		t.Fatalf("decode: err %v, %d byte(s) left", c.Err, c.Len())
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatal("decoded tuples differ from the encoded ones")
	}
	for i := range out {
		_ = append(out[i], relation.IntVal(99))
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatal("appending to one decoded tuple wrote into another")
	}
	for cut := 0; cut < len(b); cut++ {
		c := transport.NewCursor(b[:cut])
		ParseTuples(c)
		if c.Err == nil {
			t.Fatalf("payload cut to %d of %d bytes decoded without error", cut, len(b))
		}
	}
}

// BenchmarkFetchDataDecode decodes a FetchDataResp of 100 Patient tuples,
// the reply of a typical partition fetch. `make benchguard` pins its
// allocations: the tuple list, one value slab and the one string every
// name is cut from — not one allocation per tuple or per name.
func BenchmarkFetchDataDecode(b *testing.B) {
	rels, err := relation.GenerateMedical(relation.MedicalConfig{Patients: 100, Physicians: 5, Diagnoses: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	resp := FetchDataResp{Found: true, Data: wireRelation{Relation: "Patient", Tuples: rels["Patient"].Tuples}}
	buf := appendFetchDataResp(nil, &resp)
	cur := transport.NewCursor(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.Reset(buf)
		if out := parseFetchDataResp(cur); cur.Err != nil || len(out.Data.Tuples) != 100 {
			b.Fatalf("decode: %d tuples, err %v", len(out.Data.Tuples), cur.Err)
		}
	}
}
