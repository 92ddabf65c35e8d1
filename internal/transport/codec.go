package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"

	"p2prange/internal/chord"
	"p2prange/internal/trace"
)

// Binary wire codec. The TCP transport frames every request and
// response as a length-prefixed binary message: a uvarint frame length, then a small header (kind, correlation
// id, flags, optional trace context / error / span fragments), a uvarint
// message tag, and a tag-specific payload. Every message type the
// protocols send registers a hand-rolled encoder/decoder pair keyed by
// tag; a body type without one is an encode error, never a fallback
// encoding. The frame layout is documented in docs/ARCHITECTURE.md
// ("Wire protocol").

// MaxFrame bounds one request frame on the wire. A length prefix above
// it is a protocol error, not an allocation: readers reject the frame
// before buffering anything, so a corrupt or hostile client cannot make
// a server allocate gigabytes.
const MaxFrame = 16 << 20

// MaxRespFrame bounds one response frame. Responses are read only from
// servers the caller chose to dial, so the trust model is asymmetric:
// the limit exists to catch corruption, not hostile peers, and is large
// enough for bulk payloads (FetchDataResp frames carrying whole tuple
// sets). A response that would exceed it is sent as an error frame
// instead; there is no other path.
const MaxRespFrame = 1 << 30

// preallocLimit caps slice capacity preallocated from a wire-declared
// element count. Counts are validated against the remaining payload
// (one byte per element minimum), but elements decode into structs much
// larger than their encoding — a 16 MiB frame may legally declare ~16.7M
// elements, which at ~72 bytes each would preallocate over a gigabyte
// before the first element fails to parse. Decoders therefore start at
// min(n, preallocLimit) and let append grow the honest ones.
const preallocLimit = 1024

// PreallocHint returns the initial slice capacity to use for a
// wire-declared element count: the count itself when small, clamped to
// a fixed bound so a hostile length cannot force a huge allocation.
func PreallocHint(n uint64) int {
	if n > preallocLimit {
		return preallocLimit
	}
	return int(n)
}

// frame kinds.
const (
	kindRequest  = 0
	kindResponse = 1
)

// header flag bits.
const (
	flagTC    = 1 << 0 // request carries a sampled trace context
	flagErr   = 1 << 1 // response carries a handler error string
	flagSpans = 1 << 2 // response carries remote span fragments
)

// Message tags. Tag 0 is a nil body (error-only responses). Tag 1 once
// wrapped unregistered types in a self-contained gob stream; it is
// reserved forever and decodes as ErrBadFrame. Tags are wire protocol:
// never renumber an existing one, only append.
const (
	tagNil      uint64 = 0
	tagReserved uint64 = 1

	// chord routing RPCs (registered below).
	tagSuccessorReq        uint64 = 8
	tagPredecessorReq      uint64 = 9
	tagClosestPrecedingReq uint64 = 10
	tagFindSuccessorReq    uint64 = 11
	tagNotifyReq           uint64 = 12
	tagPingReq             uint64 = 13
	tagSuccessorListReq    uint64 = 14
	tagRefResp             uint64 = 15
	tagRefsResp            uint64 = 16
	tagOKResp              uint64 = 17
	tagRouteTableReq       uint64 = 18
	tagRouteTableResp      uint64 = 19

	// TagPeerBase is the first tag reserved for the peer protocol
	// (internal/peer registers its codecs there).
	TagPeerBase uint64 = 32

	// TagReplicaBase is the first tag reserved for the replica protocol
	// (internal/replica registers its codecs there).
	TagReplicaBase uint64 = 48

	// TagShipBase is the first tag reserved for the log-shipping protocol
	// (internal/ship registers its codecs there). Tags 64–71 once carried
	// the standby follower's messages and 80–83 the DHT hash join's; both
	// ranges are retired and never reused.
	TagShipBase uint64 = 64
)

// EncodeFunc appends v's payload encoding to b and returns the extended
// slice. It must accept exactly the prototype's concrete type.
type EncodeFunc func(b []byte, v any) []byte

// DecodeFunc decodes one payload from c, consuming exactly the bytes the
// matching EncodeFunc produced.
type DecodeFunc func(c *Cursor) (any, error)

// Codec directions. A tag registered DirRequest only decodes inside
// request frames, DirResponse only inside responses — so a hostile
// client cannot drive a server through response decoders (and their
// allocation patterns) it would never legitimately run.
const (
	DirRequest  byte = 1 << kindRequest
	DirResponse byte = 1 << kindResponse
	DirBoth          = DirRequest | DirResponse
)

type codecEntry struct {
	enc EncodeFunc
	dec DecodeFunc
	dir byte
}

var (
	codecByTag  = map[uint64]codecEntry{}
	codecByType = map[reflect.Type]uint64{}
)

// RegisterCodec installs a binary encoder/decoder for one concrete
// message type under a fixed tag, valid in the given frame direction
// (DirRequest, DirResponse, or DirBoth). Both ends of the wire must
// register the same tag for the same type (packages do so in init).
// Sending a body type with no codec fails to encode.
func RegisterCodec(tag uint64, prototype any, dir byte, enc EncodeFunc, dec DecodeFunc) {
	if tag <= tagReserved {
		panic(fmt.Sprintf("transport: codec tag %d is reserved", tag))
	}
	if dir&DirBoth == 0 {
		panic(fmt.Sprintf("transport: codec tag %d has no direction", tag))
	}
	if _, dup := codecByTag[tag]; dup {
		panic(fmt.Sprintf("transport: codec tag %d registered twice", tag))
	}
	t := reflect.TypeOf(prototype)
	if _, dup := codecByType[t]; dup {
		panic(fmt.Sprintf("transport: codec for %v registered twice", t))
	}
	codecByTag[tag] = codecEntry{enc: enc, dec: dec, dir: dir}
	codecByType[t] = tag
}

// --- append primitives (encoding side) ---

// AppendUvarint appends x in unsigned LEB128.
func AppendUvarint(b []byte, x uint64) []byte {
	return binary.AppendUvarint(b, x)
}

// AppendVarint appends x zigzag-encoded.
func AppendVarint(b []byte, x int64) []byte {
	return binary.AppendVarint(b, x)
}

// AppendString appends a uvarint length followed by the raw bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the IEEE-754 bits, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// SortedIDs returns m's keys in ascending order. Codecs encode maps in
// key order, so equal maps always encode to equal bytes.
func SortedIDs[V any](m map[uint32]V) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// --- Cursor (decoding side) ---

// interner deduplicates the small strings that repeat on every request
// (relation and attribute names, peer addresses), so steady-state
// decoding of a probe request allocates nothing. Bounded: once full, new
// strings are returned uninterned.
type interner struct {
	m map[string]string
}

const maxInterned = 4096

func (in *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	if len(s) <= 256 {
		if in.m == nil {
			in.m = make(map[string]string)
		}
		if len(in.m) < maxInterned {
			in.m[s] = s
		}
	}
	return s
}

// Cursor walks a frame payload. Decode errors latch into Err: after a
// failed read every subsequent read returns a zero value, so message
// decoders can read all fields and check Err once at the end.
type Cursor struct {
	data []byte
	off  int
	in   *interner
	Err  error
}

// NewCursor returns a Cursor over data (for tests and fuzzing; the
// transport builds its own, with a per-connection string interner).
func NewCursor(data []byte) *Cursor {
	return &Cursor{data: data, in: &interner{}}
}

// errTruncated is the latched error for reads past the end of the frame.
var errTruncated = fmt.Errorf("%w: truncated frame", ErrBadFrame)

// ErrBadFrame reports a malformed binary frame.
var ErrBadFrame = fmt.Errorf("transport: bad frame")

func (c *Cursor) fail() {
	if c.Err == nil {
		c.Err = errTruncated
	}
}

// Uvarint reads an unsigned LEB128 value.
func (c *Cursor) Uvarint() uint64 {
	if c.Err != nil {
		return 0
	}
	x, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return x
}

// Varint reads a zigzag-encoded signed value.
func (c *Cursor) Varint() int64 {
	if c.Err != nil {
		return 0
	}
	x, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return x
}

// Bytes reads a length-prefixed byte slice as a view into the frame
// buffer. The view is only valid until the next frame is read — copy it
// (or use String) for anything that outlives the call.
func (c *Cursor) Bytes() []byte {
	n := c.Uvarint()
	if c.Err != nil {
		return nil
	}
	if n > uint64(len(c.data)-c.off) {
		c.fail()
		return nil
	}
	b := c.data[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// Rest returns the unread bytes as a view into the frame buffer, valid
// only until the next frame is read, like Bytes.
func (c *Cursor) Rest() []byte { return c.data[c.off:] }

// String reads a length-prefixed string, interned so repeated values
// (relation names, addresses) are decoded without allocating. Bulk data
// (tuple values, descriptor keys, join keys) must use BulkString, so it
// cannot fill the bounded interner.
func (c *Cursor) String() string {
	b := c.Bytes()
	if c.Err != nil || len(b) == 0 {
		return ""
	}
	if c.in == nil {
		return string(b)
	}
	return c.in.intern(b)
}

// BulkString reads a length-prefixed string without interning it.
func (c *Cursor) BulkString() string {
	b := c.Bytes()
	if c.Err != nil || len(b) == 0 {
		return ""
	}
	return string(b)
}

// Count reads a wire-declared element count and checks it against the
// remaining payload at one byte per element, so a count the frame
// cannot hold latches ErrBadFrame before a decoder allocates for it.
// Decoders still size their first allocation with PreallocHint.
func (c *Cursor) Count() uint64 {
	n := c.Uvarint()
	if c.Err == nil && n > uint64(c.Len()) {
		c.Err = fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrBadFrame, n, c.Len())
		return 0
	}
	return n
}

// Bool reads one byte as a boolean.
func (c *Cursor) Bool() bool {
	if c.Err != nil || c.off >= len(c.data) {
		c.fail()
		return false
	}
	b := c.data[c.off]
	c.off++
	return b != 0
}

// Float64 reads IEEE-754 bits, little-endian.
func (c *Cursor) Float64() float64 {
	if c.Err != nil || len(c.data)-c.off < 8 {
		c.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(c.data[c.off:]))
	c.off += 8
	return f
}

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.data) - c.off }

// reset re-arms the cursor over a new frame, keeping the interner.
func (c *Cursor) reset(data []byte) {
	c.data, c.off, c.Err = data, 0, nil
}

// Reset re-arms the cursor over a new payload, keeping the interner, so
// hot-path decoders (and benchmarks) can reuse one cursor allocation.
func (c *Cursor) Reset(data []byte) { c.reset(data) }

// --- frames ---

// frame is one request or response in decoded form: the binary analogue
// of envelope plus multiplexing metadata (kind, correlation id).
type frame struct {
	kind  byte
	id    uint64 // correlation id matching responses to in-flight requests
	tc    *trace.Context
	err   string
	frags []byte // an encoded span fragment list, carried verbatim
	body  any
}

// appendFrame appends the frame's encoding (without the outer length
// prefix) to b. A body type with no registered codec is an error.
func appendFrame(b []byte, f *frame) ([]byte, error) {
	b = append(b, f.kind)
	b = AppendUvarint(b, f.id)
	var flags byte
	if f.tc != nil && f.tc.Sampled {
		flags |= flagTC
	}
	if f.err != "" {
		flags |= flagErr
	}
	if len(f.frags) > 0 {
		flags |= flagSpans
	}
	b = append(b, flags)
	if flags&flagTC != 0 {
		b = AppendUvarint(b, f.tc.TraceID)
		b = AppendUvarint(b, f.tc.SpanID)
		b = AppendString(b, f.tc.Caller)
	}
	if flags&flagErr != 0 {
		b = AppendString(b, f.err)
	}
	if flags&flagSpans != 0 {
		b = append(b, f.frags...)
	}
	if f.body == nil {
		return AppendUvarint(b, tagNil), nil
	}
	tag, ok := codecByType[reflect.TypeOf(f.body)]
	if !ok {
		return nil, fmt.Errorf("transport: no binary codec for %T", f.body)
	}
	b = AppendUvarint(b, tag)
	return codecByTag[tag].enc(b, f.body), nil
}

// FrameSize returns the bytes one untraced frame carrying body occupies
// on the wire, length prefix included, so a simulation prices a message
// exactly as a peer sends it. A body type with no registered codec is
// an error.
func FrameSize(body any) (int, error) {
	b, err := appendFrame(nil, &frame{body: body})
	if err != nil {
		return 0, err
	}
	return len(AppendUvarint(nil, uint64(len(b)))) + len(b), nil
}

// parseFrame decodes one frame from c (the payload after the outer
// length prefix has been consumed).
func parseFrame(c *Cursor) (frame, error) {
	var f frame
	if c.Len() < 1 {
		return f, errTruncated
	}
	f.kind = c.data[c.off]
	c.off++
	if f.kind != kindRequest && f.kind != kindResponse {
		return f, fmt.Errorf("%w: kind %d", ErrBadFrame, f.kind)
	}
	f.id = c.Uvarint()
	var flags byte
	if c.Err == nil && c.off < len(c.data) {
		flags = c.data[c.off]
		c.off++
	} else {
		c.fail()
	}
	if flags&flagTC != 0 {
		f.tc = &trace.Context{
			TraceID: c.Uvarint(),
			SpanID:  c.Uvarint(),
			Sampled: true,
			Caller:  c.String(),
		}
	}
	if flags&flagErr != 0 {
		f.err = c.String()
	}
	if flags&flagSpans != 0 && c.Err == nil {
		// The fragment list is checked in place and kept as bytes (a copy:
		// the payload buffer is reused for the next frame). It is decoded
		// only if the grafted tree is read.
		size, n, err := trace.ScanFragments(c.data[c.off:])
		if err != nil {
			return f, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		if n > 0 {
			f.frags = append([]byte(nil), c.data[c.off:c.off+size]...)
		}
		c.off += size
	}
	tag := c.Uvarint()
	if c.Err != nil {
		return f, c.Err
	}
	switch tag {
	case tagNil:
	case tagReserved:
		return f, fmt.Errorf("%w: reserved tag %d", ErrBadFrame, tag)
	default:
		entry, ok := codecByTag[tag]
		if !ok {
			return f, fmt.Errorf("%w: unknown tag %d", ErrBadFrame, tag)
		}
		if entry.dir&(1<<f.kind) == 0 {
			return f, fmt.Errorf("%w: tag %d not valid in kind-%d frames", ErrBadFrame, tag, f.kind)
		}
		body, err := entry.dec(c)
		if err != nil {
			return f, err
		}
		f.body = body
	}
	if c.Err != nil {
		return f, c.Err
	}
	return f, nil
}

// --- chord RPC codecs ---

func appendRef(b []byte, r chord.Ref) []byte {
	b = AppendUvarint(b, uint64(r.ID))
	return AppendString(b, r.Addr)
}

func parseRef(c *Cursor) chord.Ref {
	return chord.Ref{ID: chord.ID(c.Uvarint()), Addr: c.String()}
}

// empty is the codec pair for zero-field messages; the prototype's
// identity is carried entirely by the tag.
func emptyCodec(prototype any) (EncodeFunc, DecodeFunc) {
	return func(b []byte, _ any) []byte { return b },
		func(_ *Cursor) (any, error) { return prototype, nil }
}

func init() {
	enc, dec := emptyCodec(SuccessorReq{})
	RegisterCodec(tagSuccessorReq, SuccessorReq{}, DirRequest, enc, dec)
	enc, dec = emptyCodec(PredecessorReq{})
	RegisterCodec(tagPredecessorReq, PredecessorReq{}, DirRequest, enc, dec)
	enc, dec = emptyCodec(PingReq{})
	RegisterCodec(tagPingReq, PingReq{}, DirRequest, enc, dec)
	enc, dec = emptyCodec(SuccessorListReq{})
	RegisterCodec(tagSuccessorListReq, SuccessorListReq{}, DirRequest, enc, dec)
	enc, dec = emptyCodec(OKResp{})
	RegisterCodec(tagOKResp, OKResp{}, DirResponse, enc, dec)
	enc, dec = emptyCodec(RouteTableReq{})
	RegisterCodec(tagRouteTableReq, RouteTableReq{}, DirRequest, enc, dec)

	RegisterCodec(tagClosestPrecedingReq, ClosestPrecedingReq{}, DirRequest,
		func(b []byte, v any) []byte {
			return AppendUvarint(b, uint64(v.(ClosestPrecedingReq).ID))
		},
		func(c *Cursor) (any, error) {
			return ClosestPrecedingReq{ID: chord.ID(c.Uvarint())}, c.Err
		})
	RegisterCodec(tagFindSuccessorReq, FindSuccessorReq{}, DirRequest,
		func(b []byte, v any) []byte {
			return AppendUvarint(b, uint64(v.(FindSuccessorReq).ID))
		},
		func(c *Cursor) (any, error) {
			return FindSuccessorReq{ID: chord.ID(c.Uvarint())}, c.Err
		})
	RegisterCodec(tagNotifyReq, NotifyReq{}, DirRequest,
		func(b []byte, v any) []byte {
			return appendRef(b, v.(NotifyReq).Self)
		},
		func(c *Cursor) (any, error) {
			return NotifyReq{Self: parseRef(c)}, c.Err
		})
	RegisterCodec(tagRefResp, RefResp{}, DirResponse,
		func(b []byte, v any) []byte {
			return appendRef(b, v.(RefResp).Ref)
		},
		func(c *Cursor) (any, error) {
			return RefResp{Ref: parseRef(c)}, c.Err
		})
	RegisterCodec(tagRefsResp, RefsResp{}, DirResponse,
		func(b []byte, v any) []byte {
			return appendRefs(b, v.(RefsResp).Refs)
		},
		func(c *Cursor) (any, error) {
			return RefsResp{Refs: parseRefs(c)}, c.Err
		})
	RegisterCodec(tagRouteTableResp, RouteTableResp{}, DirResponse,
		func(b []byte, v any) []byte {
			rt := v.(RouteTableResp)
			return appendRefs(appendRefs(b, rt.Succs), rt.Cands)
		},
		func(c *Cursor) (any, error) {
			var rt RouteTableResp
			rt.Succs = parseRefs(c)
			rt.Cands = parseRefs(c)
			return rt, c.Err
		})
}

// appendRefs encodes a ref list: a count, then each ref.
func appendRefs(b []byte, refs []chord.Ref) []byte {
	b = AppendUvarint(b, uint64(len(refs)))
	for _, r := range refs {
		b = appendRef(b, r)
	}
	return b
}

// parseRefs decodes what appendRefs wrote; an empty list is nil.
func parseRefs(c *Cursor) []chord.Ref {
	n := c.Count()
	if c.Err != nil || n == 0 {
		return nil
	}
	refs := make([]chord.Ref, 0, PreallocHint(n))
	for i := uint64(0); i < n && c.Err == nil; i++ {
		refs = append(refs, parseRef(c))
	}
	return refs
}
