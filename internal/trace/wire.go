package trace

import (
	"sync/atomic"
	"time"
)

// Cross-peer propagation. A query's root span lives on the querying
// peer; when an instrumented call leaves the process, the caller sends a
// Context (trace identity + the parent span's id) on the transport
// envelope. The serving peer opens a local subtree with Remote, runs the
// request under it, and returns the finished subtree as a Wire fragment
// piggybacked on the response. The caller grafts the fragment back under
// the originating span, so `rangeql -trace` renders one stitched,
// cluster-wide tree with per-peer attribution.

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
func Remote(tc Context, name string) *Span {
	if !tc.Sampled {
		return nil
	}
	return &Span{
		name:    name,
		start:   time.Now(),
		traceID: tc.TraceID,
		spanID:  ids.Add(1),
		parent:  tc.SpanID,
		budget:  remoteBudget(),
	}
}

// remoteBudget bounds a serving-side subtree on its own. The caller's
// budget is not visible across the wire, so each remote fragment gets a
// fresh allowance; the grafting side re-applies its local budget when
// stitching, so the caller's total stays bounded either way.
func remoteBudget() *atomic.Int64 {
	b := new(atomic.Int64)
	b.Store(MaxTraceSpans - 1)
	return b
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

// WireItem mirrors item: an event (Child == nil) or a nested span.
type WireItem struct {
	Kind, Detail string
	Child        *Wire
}

// Export snapshots the span subtree as a Wire fragment. Nil spans export
// a zero Wire (Name == ""), which Graft ignores.
func (s *Span) Export() Wire {
	if s == nil {
		return Wire{}
	}
	w := Wire{
		TraceID: s.traceID,
		Parent:  s.parent,
		SpanID:  s.spanID,
		Name:    s.name,
		DurUS:   s.dur.Microseconds(),
	}
	s.mu.Lock()
	items := append([]item(nil), s.items...)
	s.mu.Unlock()
	for _, it := range items {
		wi := WireItem{Kind: it.kind, Detail: it.detail}
		if it.child != nil {
			cw := it.child.Export()
			wi.Child = &cw
		}
		w.Items = append(w.Items, wi)
	}
	return w
}

// Graft attaches a remote fragment as a child subtree. The local span
// budget applies, so a flood of oversized fragments truncates rather
// than growing without bound. Empty fragments (zero Wire) are ignored.
func (s *Span) Graft(w Wire) {
	if s == nil || w.Name == "" {
		return
	}
	c := s.Child(w.Name)
	if c == nil {
		return
	}
	if w.DurUS > 0 {
		c.dur = time.Duration(w.DurUS) * time.Microsecond
	}
	for _, it := range w.Items {
		if it.Child != nil {
			c.Graft(*it.Child)
			continue
		}
		c.Event(it.Kind, it.Detail)
	}
}

// GraftAll grafts each fragment in order.
func (s *Span) GraftAll(ws []Wire) {
	if s == nil {
		return
	}
	for _, w := range ws {
		s.Graft(w)
	}
}
