package peer

import (
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// Binary codecs for the partition protocol. Encoders and decoders come
// in unboxed form (concrete types in and out; the probe path is zero
// allocations steady-state when decoding into a reused FindBestBatchReq
// — benchmarked by BenchmarkCodecProbe and enforced by `make
// benchguard`) plus thin boxed wrappers registered with the transport's
// tag registry. Bulk messages (FetchDataResp's tuple sets, handoff
// buckets) have codecs too. Tuple strings decode uninterned so bulk data
// cannot fill the per-connection interner.
//
// TagPeerBase+0 once carried the single-probe FindBestReq. It stays
// reserved, so a peer that still sends one gets an unknown-tag error
// rather than a request misread as some newer message.
const (
	tagFindBestResp      = transport.TagPeerBase + 1
	tagStoreReq          = transport.TagPeerBase + 2
	tagStoreResp         = transport.TagPeerBase + 3
	tagFindBestBatchReq  = transport.TagPeerBase + 4
	tagFindBestBatchResp = transport.TagPeerBase + 5
	tagFetchDataReq      = transport.TagPeerBase + 6
	tagFetchDataResp     = transport.TagPeerBase + 7
	tagHandoffReq        = transport.TagPeerBase + 8
	tagTransferArcReq    = transport.TagPeerBase + 9
	tagTransferArcResp   = transport.TagPeerBase + 10
)

// FindBestBatchReq asks one peer for its best match in each of the
// buckets IDs, in a single round trip: the probes of one lookup that
// resolve to the same owner coalesce into one of these (a load-aware
// probe travels alone). It never carries more than l IDs; results align
// with IDs.
type FindBestBatchReq struct {
	Relation  string
	Attribute string
	Range     rangeset.Range
	Measure   store.Measure
	IDs       []uint32
}

// FindBestBatchResp carries one FindBestResp per requested bucket, in
// request order.
type FindBestBatchResp struct {
	Results []FindBestResp
}

func appendRange(b []byte, r rangeset.Range) []byte {
	b = transport.AppendVarint(b, r.Lo)
	return transport.AppendVarint(b, r.Hi)
}

func parseRange(c *transport.Cursor) rangeset.Range {
	return rangeset.Range{Lo: c.Varint(), Hi: c.Varint()}
}

func appendPartition(b []byte, p *store.Partition) []byte {
	b = transport.AppendString(b, p.Relation)
	b = transport.AppendString(b, p.Attribute)
	b = appendRange(b, p.Range)
	b = transport.AppendString(b, p.Holder)
	b = transport.AppendUvarint(b, p.Version)
	return transport.AppendString(b, p.Origin)
}

func parsePartition(c *transport.Cursor) store.Partition {
	return store.Partition{
		Relation:  c.String(),
		Attribute: c.String(),
		Range:     parseRange(c),
		Holder:    c.String(),
		Version:   c.Uvarint(),
		Origin:    c.String(),
	}
}

// A FindBestResp with Found false encodes as the single flag byte: the
// zero Match is implied, so empty-bucket responses stay tiny.
func appendFindBestResp(b []byte, r *FindBestResp) []byte {
	b = transport.AppendBool(b, r.Found)
	if !r.Found {
		return b
	}
	b = appendPartition(b, &r.Match.Partition)
	return transport.AppendFloat64(b, r.Match.Score)
}

func parseFindBestResp(c *transport.Cursor) FindBestResp {
	var r FindBestResp
	r.Found = c.Bool()
	if r.Found {
		r.Match.Partition = parsePartition(c)
		r.Match.Score = c.Float64()
	}
	return r
}

func appendStoreReq(b []byte, r *StoreReq) []byte {
	b = transport.AppendUvarint(b, uint64(r.ID))
	b = appendPartition(b, &r.Partition)
	return transport.AppendBool(b, r.Replica)
}

func parseStoreReq(c *transport.Cursor) StoreReq {
	return StoreReq{
		ID:        uint32(c.Uvarint()),
		Partition: parsePartition(c),
		Replica:   c.Bool(),
	}
}

func appendFetchDataReq(b []byte, r *FetchDataReq) []byte {
	b = transport.AppendString(b, r.Relation)
	b = transport.AppendString(b, r.Attribute)
	return appendRange(b, r.Range)
}

func parseFetchDataReq(c *transport.Cursor) FetchDataReq {
	return FetchDataReq{
		Relation:  c.String(),
		Attribute: c.String(),
		Range:     parseRange(c),
	}
}

func appendBatchReq(b []byte, r *FindBestBatchReq) []byte {
	b = transport.AppendString(b, r.Relation)
	b = transport.AppendString(b, r.Attribute)
	b = appendRange(b, r.Range)
	b = transport.AppendUvarint(b, uint64(r.Measure))
	b = transport.AppendUvarint(b, uint64(len(r.IDs)))
	for _, id := range r.IDs {
		b = transport.AppendUvarint(b, uint64(id))
	}
	return b
}

// parseBatchReq decodes into r, reusing the capacity of r.IDs, so a
// caller that keeps r across frames decodes without allocating.
func parseBatchReq(c *transport.Cursor, r *FindBestBatchReq) error {
	r.Relation = c.String()
	r.Attribute = c.String()
	r.Range = parseRange(c)
	r.Measure = store.Measure(c.Uvarint())
	r.IDs = r.IDs[:0]
	n := c.Count()
	if c.Err != nil {
		return c.Err
	}
	if n > uint64(cap(r.IDs)) {
		r.IDs = make([]uint32, 0, transport.PreallocHint(n))
	}
	for i := uint64(0); i < n && c.Err == nil; i++ {
		r.IDs = append(r.IDs, uint32(c.Uvarint()))
	}
	return c.Err
}

func appendBatchResp(b []byte, r *FindBestBatchResp) []byte {
	b = transport.AppendUvarint(b, uint64(len(r.Results)))
	for i := range r.Results {
		b = appendFindBestResp(b, &r.Results[i])
	}
	return b
}

func parseBatchResp(c *transport.Cursor) (FindBestBatchResp, error) {
	var r FindBestBatchResp
	n := c.Count()
	if c.Err != nil {
		return r, c.Err
	}
	if n > 0 {
		r.Results = make([]FindBestResp, 0, transport.PreallocHint(n))
	}
	for i := uint64(0); i < n && c.Err == nil; i++ {
		r.Results = append(r.Results, parseFindBestResp(c))
	}
	return r, c.Err
}

// A Value encodes as one uvarint header — Kind<<2, plus bit 0 when Int
// is set and bit 1 when Str is — followed by the fields present, so an
// integer cell costs its varint plus one byte and a string cell its
// bytes plus two.
const (
	valueHasInt = 1 << 0
	valueHasStr = 1 << 1
)

func appendValue(b []byte, v relation.Value) []byte {
	h := uint64(v.Kind) << 2
	if v.Int != 0 {
		h |= valueHasInt
	}
	if v.Str != "" {
		h |= valueHasStr
	}
	b = transport.AppendUvarint(b, h)
	if v.Int != 0 {
		b = transport.AppendVarint(b, v.Int)
	}
	if v.Str != "" {
		b = transport.AppendString(b, v.Str)
	}
	return b
}

// parseValue decodes one value. Its string is cut from text, the unread
// bytes of c's frame when c had len(text) bytes left, converted once.
func parseValue(c *transport.Cursor, text string) relation.Value {
	h := c.Uvarint()
	v := relation.Value{Kind: relation.Type(h >> 2)}
	if h&valueHasInt != 0 {
		v.Int = c.Varint()
	}
	if h&valueHasStr != 0 {
		b := c.Bytes()
		if end := len(text) - c.Len(); c.Err == nil {
			v.Str = text[end-len(b) : end]
		}
	}
	return v
}

// AppendTuples encodes a tuple list: a count, then each tuple as a value
// count and its values. The distributed-join protocol reuses it.
func AppendTuples(b []byte, ts []relation.Tuple) []byte {
	b = transport.AppendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = transport.AppendUvarint(b, uint64(len(t)))
		for _, v := range t {
			b = appendValue(b, v)
		}
	}
	return b
}

// ParseTuples decodes AppendTuples' encoding. The tuples are windows
// into chunked value slabs, not one allocation each, and their strings
// are substrings of one string: the frame's bytes from the list to the
// end of the frame, converted once. A retained tuple therefore pins the
// text of the whole reply it arrived in (from the list on). Both counts
// are checked against the remaining payload before anything is
// allocated for them, and a chunk is sized for the rest of the list at
// the current tuple's arity but never beyond the values the payload left
// can hold (each takes at least one byte) nor beyond PreallocHint; a
// longer tuple grows its chunk by append. An empty list decodes as nil,
// an empty tuple as nil. Errors latch into c.Err.
func ParseTuples(c *transport.Cursor) []relation.Tuple {
	n := c.Count()
	if c.Err != nil || n == 0 {
		return nil
	}
	ts := make([]relation.Tuple, 0, transport.PreallocHint(n))
	var slab []relation.Value
	var text string
	for i := uint64(0); i < n && c.Err == nil; i++ {
		m := c.Count()
		if m == 0 {
			ts = append(ts, nil)
			continue
		}
		if uint64(cap(slab)-len(slab)) < m {
			slab = make([]relation.Value, 0, transport.PreallocHint(min((n-i)*m, uint64(c.Len()))))
		}
		if text == "" {
			text = string(c.Rest())
		}
		start := len(slab)
		for j := uint64(0); j < m && c.Err == nil; j++ {
			slab = append(slab, parseValue(c, text))
		}
		ts = append(ts, slab[start:len(slab):len(slab)])
	}
	return ts
}

func appendTransferArcReq(b []byte, r *TransferArcReq) []byte {
	b = transport.AppendUvarint(b, uint64(r.From))
	return transport.AppendUvarint(b, uint64(r.To))
}

func parseTransferArcReq(c *transport.Cursor) TransferArcReq {
	return TransferArcReq{From: uint32(c.Uvarint()), To: uint32(c.Uvarint())}
}

func appendFetchDataResp(b []byte, r *FetchDataResp) []byte {
	b = transport.AppendBool(b, r.Found)
	b = transport.AppendString(b, r.Data.Relation)
	return AppendTuples(b, r.Data.Tuples)
}

func parseFetchDataResp(c *transport.Cursor) FetchDataResp {
	return FetchDataResp{
		Found: c.Bool(),
		Data:  wireRelation{Relation: c.String(), Tuples: ParseTuples(c)},
	}
}

func appendBuckets(b []byte, m map[uint32][]store.Partition) []byte {
	b = transport.AppendUvarint(b, uint64(len(m)))
	for _, id := range transport.SortedIDs(m) {
		b = transport.AppendUvarint(b, uint64(id))
		ps := m[id]
		b = transport.AppendUvarint(b, uint64(len(ps)))
		for i := range ps {
			b = appendPartition(b, &ps[i])
		}
	}
	return b
}

// parseBuckets decodes appendBuckets' encoding; an empty map decodes as
// nil, a bucket with no partitions as an empty (non-nil) slice.
func parseBuckets(c *transport.Cursor) map[uint32][]store.Partition {
	n := c.Count()
	if c.Err != nil || n == 0 {
		return nil
	}
	m := make(map[uint32][]store.Partition, transport.PreallocHint(n))
	for i := uint64(0); i < n && c.Err == nil; i++ {
		id := uint32(c.Uvarint())
		k := c.Count()
		ps := make([]store.Partition, 0, transport.PreallocHint(k))
		for j := uint64(0); j < k && c.Err == nil; j++ {
			ps = append(ps, parsePartition(c))
		}
		m[id] = ps
	}
	return m
}

func init() {
	transport.RegisterCodec(tagFindBestResp, FindBestResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { r := v.(FindBestResp); return appendFindBestResp(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseFindBestResp(c), c.Err })
	transport.RegisterCodec(tagStoreReq, StoreReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(StoreReq); return appendStoreReq(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseStoreReq(c), c.Err })
	transport.RegisterCodec(tagStoreResp, StoreResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { return transport.AppendBool(b, v.(StoreResp).Stored) },
		func(c *transport.Cursor) (any, error) { return StoreResp{Stored: c.Bool()}, c.Err })
	transport.RegisterCodec(tagFetchDataReq, FetchDataReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(FetchDataReq); return appendFetchDataReq(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseFetchDataReq(c), c.Err })
	transport.RegisterCodec(tagFindBestBatchReq, FindBestBatchReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(FindBestBatchReq); return appendBatchReq(b, &r) },
		func(c *transport.Cursor) (any, error) {
			var r FindBestBatchReq
			err := parseBatchReq(c, &r)
			return r, err
		})
	transport.RegisterCodec(tagFindBestBatchResp, FindBestBatchResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { r := v.(FindBestBatchResp); return appendBatchResp(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseBatchResp(c) })
	transport.RegisterCodec(tagFetchDataResp, FetchDataResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { r := v.(FetchDataResp); return appendFetchDataResp(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseFetchDataResp(c), c.Err })
	transport.RegisterCodec(tagHandoffReq, HandoffReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { return appendBuckets(b, v.(HandoffReq).Buckets) },
		func(c *transport.Cursor) (any, error) { return HandoffReq{Buckets: parseBuckets(c)}, c.Err })
	transport.RegisterCodec(tagTransferArcReq, TransferArcReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(TransferArcReq); return appendTransferArcReq(b, &r) },
		func(c *transport.Cursor) (any, error) { return parseTransferArcReq(c), c.Err })
	transport.RegisterCodec(tagTransferArcResp, TransferArcResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { return appendBuckets(b, v.(TransferArcResp).Buckets) },
		func(c *transport.Cursor) (any, error) { return TransferArcResp{Buckets: parseBuckets(c)}, c.Err })
}
