package trace

import (
	"encoding/binary"
	"errors"
)

// Cross-peer propagation. A query's root span lives on the querying
// peer; when an instrumented call leaves the process, the caller sends a
// Context (trace identity + the parent span's id) on the transport
// envelope. The serving peer opens a local subtree with Remote, runs the
// request under it, and returns the finished subtree as a fragment list
// (Fragment) piggybacked on the response. The caller grafts the bytes
// back under the originating span (GraftFragments), so `rangeql -trace`
// renders one stitched, cluster-wide tree with per-peer attribution.
//
// A fragment list is a uvarint count, then each subtree in Wire layout:
// uvarint TraceID, Parent and SpanID, the length-prefixed Name, the
// zigzag varint DurUS, a uvarint item count, then per item the
// length-prefixed Kind and Detail and one byte, nonzero when a nested
// subtree in the same layout follows. The transport carries these bytes
// verbatim, so they are the wire format.

// Context identifies a position in a distributed trace. The zero value
// means "not sampled": handlers receiving it run untraced.
type Context struct {
	TraceID uint64 // identity of the whole trace
	SpanID  uint64 // the calling side's span, parent of remote work
	Sampled bool   // false disables tracing on the serving side
	Caller  string // address of the calling peer, for attribution
}

// Context captures this span's position for propagation to another
// peer. caller is the sending peer's address; a nil span returns the
// zero (unsampled) Context.
func (s *Span) Context(caller string) Context {
	if s == nil {
		return Context{}
	}
	return Context{TraceID: s.traceID, SpanID: s.spanID, Sampled: true, Caller: caller}
}

// Remote starts the serving-side root of a propagated trace: a span
// whose parent is the caller's span on another peer. It returns nil when
// the context is unsampled, preserving the disabled-tracer fast path.
// The subtree has its own buffer and a fresh span budget: the caller's
// budget is not visible across the wire, and the grafting side charges
// the fragment's spans to its own budget when stitching, so the caller's
// total stays bounded either way.
func Remote(tc Context, name string) *Span {
	if !tc.Sampled {
		return nil
	}
	return newTree(name, tc.TraceID, tc.SpanID)
}

// Wire is a span subtree in transferable form, JSON-encodable with
// no interface-typed fields. IDs ride along so the grafting side can
// correlate fragments with the spans that caused them.
type Wire struct {
	TraceID uint64
	Parent  uint64 // span id of the caller-side parent
	SpanID  uint64
	Name    string
	DurUS   int64 // duration in microseconds (0 = not ended)
	Items   []WireItem
}

// WireItem is one entry of a span: an event (Child == nil) or a nested
// span.
type WireItem struct {
	Kind, Detail string
	Child        *Wire
}

// Export snapshots the span subtree as a Wire, decoding grafted remote
// subtrees. Nil spans export a zero Wire (Name == ""), which Graft
// ignores.
func (s *Span) Export() Wire {
	if s == nil {
		return Wire{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.export()
}

// export builds s's Wire. Called with t.mu held.
func (s *Span) export() Wire {
	w := Wire{
		TraceID: s.traceID,
		Parent:  s.parent,
		SpanID:  s.spanID,
		Name:    s.nameString(),
		DurUS:   s.dur.Microseconds(),
	}
	if s.items > 0 {
		w.Items = make([]WireItem, 0, s.items)
	}
	s.entries(func(e entry, _ bool) {
		switch {
		case e.child != nil:
			cw := e.child.export()
			w.Items = append(w.Items, WireItem{Child: &cw})
		case e.graft != nil:
			cw := new(Wire)
			if _, err := walkWire(&reader{b: e.graft}, 0, cw); err == nil {
				w.Items = append(w.Items, WireItem{Child: cw})
			}
		default:
			w.Items = append(w.Items, WireItem{Kind: string(e.kind), Detail: string(e.detail)})
		}
	})
	return w
}

// Fragment encodes the span subtree as a one-entry fragment list, the
// bytes a handler returns for the transport to carry home. A nil span
// returns nil.
func (s *Span) Fragment() []byte {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	b := make([]byte, 1, len(s.t.buf)+64)
	b[0] = 1
	return s.appendWire(b)
}

// appendWire appends s's subtree in Wire layout: events are copied as
// stored, grafted subtrees verbatim. Called with t.mu held.
func (s *Span) appendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, s.traceID)
	b = binary.AppendUvarint(b, s.parent)
	b = binary.AppendUvarint(b, s.spanID)
	if s.nameAt == 0 {
		b = appendString(b, s.name)
	} else {
		b = append(b, s.t.buf[s.nameAt:skipString(s.t.buf, int(s.nameAt))]...)
	}
	b = binary.AppendVarint(b, s.dur.Microseconds())
	b = binary.AppendUvarint(b, uint64(s.items))
	s.entries(func(e entry, _ bool) {
		switch {
		case e.child != nil:
			b = append(b, 0, 0, 1)
			b = e.child.appendWire(b)
		case e.graft != nil:
			b = append(b, 0, 0, 1)
			b = append(b, e.graft...)
		default:
			b = append(b, e.raw...)
			b = append(b, 0)
		}
	})
	return b
}

// Graft attaches a remote fragment as a child subtree. Empty fragments
// (zero Wire) are ignored.
func (s *Span) Graft(w Wire) {
	if s == nil || w.Name == "" {
		return
	}
	s.GraftFragments(AppendFragments(nil, w))
}

// GraftFragments attaches each subtree of a fragment list as one child
// entry of s, keeping its bytes: they are decoded only when the tree is
// read. The subtree's span count is charged to the trace's span budget,
// so a flood of oversized fragments truncates rather than growing
// without bound. Subtrees with an empty name are skipped, and grafting
// stops at the first subtree that does not decode under ScanFragments'
// rules.
func (s *Span) GraftFragments(frags []byte) {
	if s == nil || len(frags) == 0 {
		return
	}
	t := s.t
	r := reader{b: frags}
	n := r.count()
	for i := uint64(0); i < n && r.err == nil; i++ {
		start := r.off
		spans, err := walkWire(&r, 0, nil)
		if err != nil {
			return
		}
		one := frags[start:r.off]
		if len(wireName(one)) == 0 {
			continue
		}
		if t.budget.Add(-int64(spans)) < 0 {
			t.mu.Lock()
			s.markTruncated("trace span budget reached")
			t.mu.Unlock()
			return
		}
		t.mu.Lock()
		if s.admit() {
			s.record(recGraft)
			t.buf = binary.AppendUvarint(t.buf, uint64(len(one)))
			t.buf = append(t.buf, one...)
		}
		t.mu.Unlock()
	}
}

// AppendFragments appends ws as a fragment list.
func AppendFragments(b []byte, ws ...Wire) []byte {
	b = binary.AppendUvarint(b, uint64(len(ws)))
	for i := range ws {
		b = appendWireValue(b, &ws[i])
	}
	return b
}

func appendWireValue(b []byte, w *Wire) []byte {
	b = binary.AppendUvarint(b, w.TraceID)
	b = binary.AppendUvarint(b, w.Parent)
	b = binary.AppendUvarint(b, w.SpanID)
	b = appendString(b, w.Name)
	b = binary.AppendVarint(b, w.DurUS)
	b = binary.AppendUvarint(b, uint64(len(w.Items)))
	for i := range w.Items {
		it := &w.Items[i]
		b = appendString(b, it.Kind)
		b = appendString(b, it.Detail)
		if it.Child != nil {
			b = append(b, 1)
			b = appendWireValue(b, it.Child)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// ScanFragments checks the fragment list at the start of b without
// building anything and returns its encoded size and the number of
// subtrees in it. The rules are the frame parser's: every count and
// string length must fit in the bytes that remain, and subtrees nest at
// most maxWireDepth deep.
func ScanFragments(b []byte) (size int, n uint64, err error) {
	r := reader{b: b}
	n = r.count()
	for i := uint64(0); i < n && r.err == nil; i++ {
		if _, err := walkWire(&r, 0, nil); err != nil {
			return 0, 0, err
		}
	}
	if r.err != nil {
		return 0, 0, r.err
	}
	return r.off, n, nil
}

// maxWireDepth bounds span-tree recursion so a malicious frame cannot
// blow the stack.
const maxWireDepth = 64

// Fragment decoding errors.
var (
	errTruncated = errors.New("trace: truncated fragment")
	errTooDeep   = errors.New("trace: span tree too deep")
	errCount     = errors.New("trace: fragment count exceeds the bytes left")
)

// walkWire reads one subtree in Wire layout from r and returns how many
// spans it holds. When w is non-nil it also decodes the subtree into w
// under the bounds a local tree keeps: nested subtrees with an empty
// name are dropped, and a span's entries past MaxSpanItems become one
// "truncated" marker.
func walkWire(r *reader, depth int, w *Wire) (int, error) {
	if depth > maxWireDepth {
		return 0, errTooDeep
	}
	traceID, parent, spanID := r.uvarint(), r.uvarint(), r.uvarint()
	name := r.bytes()
	dur := r.varint()
	n := r.count()
	if r.err != nil {
		return 0, r.err
	}
	if w != nil {
		*w = Wire{TraceID: traceID, Parent: parent, SpanID: spanID, Name: string(name), DurUS: dur}
		if n > 0 {
			w.Items = make([]WireItem, 0, min(n, MaxSpanItems+1))
		}
	}
	spans := 1
	for i := uint64(0); i < n; i++ {
		kind, detail := r.bytes(), r.bytes()
		hasChild := r.byte() != 0
		if r.err != nil {
			return 0, r.err
		}
		var it WireItem
		var child *Wire
		if hasChild {
			if w != nil {
				child = new(Wire)
			}
			k, err := walkWire(r, depth+1, child)
			if err != nil {
				return 0, err
			}
			spans += k
			if w != nil && child.Name == "" {
				continue
			}
			it.Child = child
		} else if w != nil {
			it.Kind, it.Detail = string(kind), string(detail)
		}
		if w == nil {
			continue
		}
		switch {
		case len(w.Items) < MaxSpanItems:
			w.Items = append(w.Items, it)
		case len(w.Items) == MaxSpanItems:
			w.Items = append(w.Items, WireItem{Kind: "truncated", Detail: "span item cap reached"})
		}
	}
	return spans, nil
}

// wireName returns the name of the subtree encoded at the start of b.
func wireName(b []byte) []byte {
	r := reader{b: b}
	r.uvarint()
	r.uvarint()
	r.uvarint()
	return r.bytes()
}

// reader walks encoded bytes. Errors latch: after a failed read every
// later read returns a zero value.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return x
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return x
}

// bytes reads a length-prefixed string as a view into the buffer.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(errTruncated)
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// count reads an element count, at most one per remaining byte.
func (r *reader) count() uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off) {
		r.fail(errCount)
		return 0
	}
	return n
}

func (r *reader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail(errTruncated)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// appendString appends a uvarint length and the raw bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// skipString returns the offset just past the length-prefixed string at
// off in b.
func skipString(b []byte, off int) int {
	n, k := binary.Uvarint(b[off:])
	return off + k + int(n)
}

// appendText appends fmt.Sprintf(format, args...) as a length-prefixed
// string: one length byte is reserved and widened afterwards in the rare
// case the text reaches 128 bytes.
func appendText(b []byte, format string, args []any) []byte {
	at := len(b)
	b = appendf(append(b, 0), format, args)
	n := len(b) - at - 1
	if n < 0x80 {
		b[at] = byte(n)
		return b
	}
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	b = append(b, hdr[:k-1]...)
	copy(b[at+k:], b[at+1:at+1+n])
	copy(b[at:], hdr[:k])
	return b
}
