// Package trace is the per-query tracing layer: a Span tree that follows
// one range lookup or SQL execution through the query planner, the peer
// protocol, the DHT substrate, and the transports, recording per-hop
// events (node contacted, message kind, retries and detours, signature
// cache outcome) with timings. rangeql -trace renders the tree per query;
// the golden test in the root package pins its shape.
//
// The paper's evaluation is entirely per-lookup — hop counts (Fig. 12),
// probe success (Figs. 6-9), hashing cost (Fig. 5) — and a span tree is
// those figures for a single query: each "probe" child is one of the l
// identifier resolutions, its "hop" events are the Fig. 12 path, and its
// "sig" event says whether this lookup paid the Fig. 5 signing cost
// (miss) or reused a cached signature (hit).
//
// # The disabled tracer costs nothing
//
// A nil *Span is the disabled tracer: every method no-ops and performs no
// allocation, so instrumented code threads spans unconditionally through
// hot paths. Call sites guard work that only feeds the trace behind On(),
// so a nil span formats nothing. BenchmarkDisabledSpan pins the
// 0 allocs/op contract.
//
// # An enabled tracer records into one buffer
//
// A live peer's flight recorder gives every query a root span, so On()
// is true on every live query and recording must be cheap too. All the
// spans of one tree (a root from New or Remote and its descendants)
// share one append-only byte buffer: an event's kind and text, a child's
// name and a grafted remote subtree are appended there, and Eventf and
// Childf format straight into it without fmt for the verbs call sites
// use (see appendf). Spans themselves are allocated in doubling slabs. A
// retained tree therefore holds a few pointers per span and none per
// event, and recording an event allocates nothing here (a call site still
// boxes its non-constant Eventf arguments).
//
// Serve subtrees cross the wire in Wire layout (Fragment) and are grafted
// as those bytes (GraftFragments): they are decoded into objects only
// when a tree is read (Tree, Export).
package trace

import (
	"encoding/binary"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Bounds on a single trace's memory. A span stops accepting entries after
// MaxSpanItems (one "truncated" marker is recorded), and a whole trace —
// the root plus every descendant, local or grafted from a remote peer —
// holds at most MaxTraceSpans spans. Pathological fan-out (a routing loop
// probing thousands of owners, a storm of remote fragments) therefore
// degrades to a truncated tree instead of unbounded growth.
const (
	MaxSpanItems  = 4096
	MaxTraceSpans = 65536
)

// maxTreeBytes bounds one tree's buffer, so its offsets fit in uint32.
// Entries past it are dropped like entries past MaxSpanItems.
const maxTreeBytes = 1 << 30

// ids issues process-unique span and trace identifiers. They exist for
// cross-peer correlation (Context, Wire) and never appear in rendering,
// so a simple counter keeps traces deterministic enough for golden tests.
var ids atomic.Uint64

// Record tags in a tree's buffer.
const (
	recEvent = iota // kind, text: two length-prefixed strings
	recChild        // uvarint span index, then the child's name
	recGraft        // uvarint length, then one subtree in Wire layout
)

// tree is the storage one span tree shares. buf holds every entry of
// every span as records, each a 4-byte little-endian offset of its
// span's next record (0 for the last; offset 0 is a pad byte, never a
// record), a tag, and the tag's payload. Each span links its own
// records, so appending never moves or copies earlier entries.
type tree struct {
	budget atomic.Int64 // spans left for this tree

	mu    sync.Mutex
	buf   []byte
	slabs [][]Span // child spans; slab k holds 2^(k+1) of them (see child)
	n     uint32   // child spans allocated
	root  Span
	// inline is buf's first backing array, so a small tree (a serve
	// span and its few events) is one allocation.
	inline [200]byte
}

// Span is one timed node of a trace tree. Create a root with New, extend
// it with Child and Event, and close it with End. All methods are safe
// for concurrent use (parallel probes may append to one parent) and
// tolerate a nil receiver.
type Span struct {
	t      *tree
	name   string // a root's name; a child's is in t.buf at nameAt
	nameAt uint32
	start  time.Time

	traceID uint64
	spanID  uint64
	parent  uint64 // remote roots: the calling side's span id

	// Guarded by t.mu.
	dur        time.Duration
	head, tail uint32 // first and last record of this span's entries
	items      int
	truncated  bool
}

// newTree starts a tree whose root has the given identity and a fresh
// span budget.
func newTree(name string, traceID, parent uint64) *Span {
	t := new(tree)
	t.buf = t.inline[:1]
	t.budget.Store(MaxTraceSpans - 1) // the root itself spends one
	t.root = Span{
		t:       t,
		name:    name,
		start:   time.Now(),
		traceID: traceID,
		spanID:  ids.Add(1),
		parent:  parent,
	}
	return &t.root
}

// New starts a root span with a fresh trace identity and span budget.
func New(name string) *Span {
	return newTree(name, ids.Add(1), 0)
}

// On reports whether tracing is enabled. Guard any work that only feeds
// the trace — especially argument construction — behind it.
func (s *Span) On() bool { return s != nil }

// Child starts a sub-span and attaches it in order. A nil receiver
// returns a nil child, so chains stay nil-safe. Once the trace's span
// budget is exhausted Child records a single "truncated" event on the
// parent and returns nil, so runaway fan-out disables itself.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.openChild()
	if c != nil {
		c.t.buf = appendString(c.t.buf, name)
		c.t.mu.Unlock()
	}
	return c
}

// Childf is Child with the name formatted like Eventf's text, straight
// into the tree's buffer.
func (s *Span) Childf(format string, args ...any) *Span {
	if s == nil {
		return nil
	}
	c := s.openChild()
	if c != nil {
		c.t.buf = appendText(c.t.buf, format, args)
		c.t.mu.Unlock()
	}
	return c
}

// openChild allocates a child span and its record on s, up to the name,
// and returns it with the tree locked; the caller appends the name and
// unlocks. It returns nil, unlocked, when a bound refuses the child.
func (s *Span) openChild() *Span {
	t := s.t
	if t.budget.Add(-1) < 0 {
		t.mu.Lock()
		s.markTruncated("trace span budget reached")
		t.mu.Unlock()
		return nil
	}
	start, id := time.Now(), ids.Add(1)
	t.mu.Lock()
	if !s.admit() {
		t.mu.Unlock()
		return nil
	}
	if k := len(t.slabs); k == 0 || len(t.slabs[k-1]) == cap(t.slabs[k-1]) {
		t.slabs = append(t.slabs, make([]Span, 0, 2<<k))
	}
	slab := &t.slabs[len(t.slabs)-1]
	*slab = append(*slab, Span{t: t, start: start, traceID: s.traceID, spanID: id, parent: s.spanID})
	c := &(*slab)[len(*slab)-1]
	t.n++
	s.record(recChild)
	t.buf = binary.AppendUvarint(t.buf, uint64(t.n))
	c.nameAt = uint32(len(t.buf))
	return c
}

// child returns child span i (from 1), as a recChild record names it.
// Slabs double, so the slabs before slab k hold 2^(k+1)-2 spans: child i
// is in slab bits.Len(i+1)-2.
func (t *tree) child(i uint64) *Span {
	k := bits.Len64(i+1) - 2
	return &t.slabs[k][i+1-2<<k]
}

// Event records a point annotation ("hop", "detour", "sig", ...) with a
// preformatted detail string.
func (s *Span) Event(kind, detail string) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if s.admit() {
		s.record(recEvent)
		t.buf = appendString(t.buf, kind)
		t.buf = appendString(t.buf, detail)
	}
	t.mu.Unlock()
}

// Eventf is Event with formatting: the text is what fmt.Sprintf would
// produce, appended straight into the tree's buffer. The arguments are
// formatted under the tree's lock, so their String, Error and Append
// methods must not record into the same tree. The variadic arguments box
// even when the span is nil, so hot paths guard calls with On().
func (s *Span) Eventf(kind, format string, args ...any) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if s.admit() {
		s.record(recEvent)
		t.buf = appendString(t.buf, kind)
		t.buf = appendText(t.buf, format, args)
	}
	t.mu.Unlock()
}

// admit reports whether s may take one more entry, enforcing the
// per-span cap: the first entry past it is replaced by a "truncated"
// marker and later ones drop. Called with t.mu held.
func (s *Span) admit() bool {
	if s.items >= MaxSpanItems {
		s.markTruncated("span item cap reached")
		return false
	}
	if len(s.t.buf) > maxTreeBytes {
		s.markTruncated("trace buffer cap reached")
		return false
	}
	return true
}

// markTruncated records (once) why s stopped taking entries. Called with
// t.mu held.
func (s *Span) markTruncated(why string) {
	if s.truncated {
		return
	}
	s.truncated = true
	if s.items < MaxSpanItems+1 {
		s.record(recEvent)
		s.t.buf = appendString(s.t.buf, "truncated")
		s.t.buf = appendString(s.t.buf, why)
	}
}

// record appends the header of one more entry of s and links it after
// s's last one; the caller appends the payload. Called with t.mu held.
func (s *Span) record(tag byte) {
	t := s.t
	off := uint32(len(t.buf))
	if s.tail != 0 {
		binary.LittleEndian.PutUint32(t.buf[s.tail:], off)
	} else {
		s.head = off
	}
	s.tail = off
	s.items++
	t.buf = append(t.buf, 0, 0, 0, 0, tag)
}

// End stamps the span's duration. Ending twice keeps the first stamp;
// an unended span renders with no duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.t.mu.Lock()
	if s.dur == 0 {
		s.dur = d
	}
	s.t.mu.Unlock()
}

// Duration returns the stamped duration (zero before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.dur
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	if s.nameAt == 0 {
		return s.name
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.nameString()
}

// nameString returns the span's name. Called with t.mu held.
func (s *Span) nameString() string {
	if s.nameAt == 0 {
		return s.name
	}
	r := reader{b: s.t.buf, off: int(s.nameAt)}
	return string(r.bytes())
}

// TraceID returns the trace identity this span belongs to (0 for a nil
// span). The flight recorder keys retained trees by it, and the
// Prometheus exposition attaches it to histogram buckets as an
// exemplar, so a latency outlier on a dashboard resolves to a concrete
// retained trace.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// entry is one decoded record of a span: an event (kind and detail,
// raw holding both as stored), a child span, or a grafted subtree in
// Wire layout.
type entry struct {
	kind, detail, raw []byte
	child             *Span
	graft             []byte
}

// entries calls f for each of s's records in order, with last set on the
// final one. Called with t.mu held.
func (s *Span) entries(f func(e entry, last bool)) {
	t := s.t
	for off := s.head; off != 0; {
		next := binary.LittleEndian.Uint32(t.buf[off:])
		r := reader{b: t.buf, off: int(off) + 5}
		var e entry
		switch t.buf[off+4] {
		case recEvent:
			e.kind, e.detail = r.bytes(), r.bytes()
			e.raw = t.buf[off+5 : r.off]
		case recChild:
			e.child = t.child(r.uvarint())
		case recGraft:
			e.graft = r.bytes()
		}
		f(e, next == 0)
		off = next
	}
}

// Tree renders the span as an indented tree, one line per span or event.
// withTimings appends each span's duration; golden tests disable it so
// the output is deterministic.
func (s *Span) Tree(withTimings bool) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.t.mu.Lock()
	s.render(&b, "", "", withTimings)
	s.t.mu.Unlock()
	return b.String()
}

// String renders the tree with timings.
func (s *Span) String() string { return s.Tree(true) }

// render emits this span's line under linePrefix and its entries under
// childPrefix, using the usual box-drawing tree connectors. Called with
// t.mu held.
func (s *Span) render(b *strings.Builder, linePrefix, childPrefix string, withTimings bool) {
	renderLine(b, linePrefix, s.nameString(), s.dur, withTimings)
	s.entries(func(e entry, last bool) {
		connector, indent := connectors(last)
		switch {
		case e.child != nil:
			e.child.render(b, childPrefix+connector, childPrefix+indent, withTimings)
		case e.graft != nil:
			var w Wire
			if _, err := walkWire(&reader{b: e.graft}, 0, &w); err == nil {
				w.render(b, childPrefix+connector, childPrefix+indent, withTimings)
			}
		default:
			renderEvent(b, childPrefix+connector, e.kind, e.detail)
		}
	})
}

// render is Span.render for a decoded remote subtree.
func (w *Wire) render(b *strings.Builder, linePrefix, childPrefix string, withTimings bool) {
	var dur time.Duration
	if w.DurUS > 0 {
		dur = time.Duration(w.DurUS) * time.Microsecond
	}
	renderLine(b, linePrefix, w.Name, dur, withTimings)
	for i, it := range w.Items {
		connector, indent := connectors(i == len(w.Items)-1)
		if it.Child != nil {
			it.Child.render(b, childPrefix+connector, childPrefix+indent, withTimings)
			continue
		}
		renderEvent(b, childPrefix+connector, []byte(it.Kind), []byte(it.Detail))
	}
}

func connectors(last bool) (connector, indent string) {
	if last {
		return "└─ ", "   "
	}
	return "├─ ", "│  "
}

func renderLine(b *strings.Builder, prefix, name string, dur time.Duration, withTimings bool) {
	b.WriteString(prefix)
	b.WriteString(name)
	if withTimings && dur > 0 {
		b.WriteString("  (")
		b.WriteString(dur.Round(time.Microsecond).String())
		b.WriteByte(')')
	}
	b.WriteByte('\n')
}

func renderEvent(b *strings.Builder, prefix string, kind, detail []byte) {
	b.WriteString(prefix)
	b.Write(kind)
	if len(detail) > 0 {
		b.WriteString(": ")
		b.Write(detail)
	}
	b.WriteByte('\n')
}
