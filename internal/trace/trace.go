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
// hot paths. The only discipline call sites need: guard event-string
// construction (fmt.Sprintf, Eventf's variadic boxing) behind On(), so a
// disabled trace never formats anything. BenchmarkDisabledSpan pins the
// 0 allocs/op contract.
package trace

import (
	"fmt"
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

// ids issues process-unique span and trace identifiers. They exist for
// cross-peer correlation (Context, Wire) and never appear in rendering,
// so a simple counter keeps traces deterministic enough for golden tests.
var ids atomic.Uint64

// Span is one timed node of a trace tree. Create a root with New, extend
// it with Child and Event, and close it with End. All methods are safe
// for concurrent use (parallel probes may append to one parent) and
// tolerate a nil receiver.
type Span struct {
	name  string
	start time.Time
	dur   time.Duration

	traceID uint64
	spanID  uint64
	parent  uint64        // remote roots: the calling side's span id
	budget  *atomic.Int64 // shared per-trace span allowance

	mu        sync.Mutex
	items     []item
	truncated bool
}

// item is one ordered entry of a span: an event (child == nil) or a
// child span.
type item struct {
	kind, detail string
	child        *Span
}

// New starts a root span with a fresh trace identity and span budget.
func New(name string) *Span {
	b := new(atomic.Int64)
	b.Store(MaxTraceSpans - 1) // the root itself spends one
	return &Span{
		name:    name,
		start:   time.Now(),
		traceID: ids.Add(1),
		spanID:  ids.Add(1),
		budget:  b,
	}
}

// On reports whether tracing is enabled. Guard any work that only feeds
// the trace — especially string formatting — behind it.
func (s *Span) On() bool { return s != nil }

// Child starts a sub-span and attaches it in order. A nil receiver
// returns a nil child, so chains stay nil-safe. Once the trace's span
// budget is exhausted Child records a single "truncated" event on the
// parent and returns nil, so runaway fan-out disables itself.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	if s.budget != nil && s.budget.Add(-1) < 0 {
		s.markTruncated()
		return nil
	}
	c := &Span{
		name:    name,
		start:   time.Now(),
		traceID: s.traceID,
		spanID:  ids.Add(1),
		parent:  s.spanID,
		budget:  s.budget,
	}
	if !s.attach(item{child: c}) {
		return nil
	}
	return c
}

// Event records a point annotation ("hop", "detour", "sig", ...) with a
// preformatted detail string.
func (s *Span) Event(kind, detail string) {
	if s == nil {
		return
	}
	s.attach(item{kind: kind, detail: detail})
}

// attach appends an item, enforcing the per-span cap. The first entry
// past the cap is replaced by a "truncated" marker; later ones drop.
func (s *Span) attach(it item) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) >= MaxSpanItems {
		if !s.truncated {
			s.truncated = true
			s.items = append(s.items, item{kind: "truncated", detail: "span item cap reached"})
		}
		return false
	}
	s.items = append(s.items, it)
	return true
}

// markTruncated records (once) that the trace's span budget ran out.
func (s *Span) markTruncated() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.truncated {
		return
	}
	s.truncated = true
	if len(s.items) < MaxSpanItems+1 {
		s.items = append(s.items, item{kind: "truncated", detail: "trace span budget reached"})
	}
}

// Eventf is Event with formatting. The variadic arguments box even when
// the span is nil, so hot paths must guard calls with On().
func (s *Span) Eventf(kind, format string, args ...any) {
	if s == nil {
		return
	}
	s.Event(kind, fmt.Sprintf(format, args...))
}

// End stamps the span's duration. Ending twice keeps the first stamp;
// an unended span renders with no duration.
func (s *Span) End() {
	if s == nil || s.dur != 0 {
		return
	}
	s.dur = time.Since(s.start)
}

// Duration returns the stamped duration (zero before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
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

// Tree renders the span as an indented tree, one line per span or event.
// withTimings appends each span's duration; golden tests disable it so
// the output is deterministic.
func (s *Span) Tree(withTimings bool) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.render(&b, "", "", withTimings)
	return b.String()
}

// String renders the tree with timings.
func (s *Span) String() string { return s.Tree(true) }

// render emits this span's line under linePrefix and its items under
// childPrefix, using the usual box-drawing tree connectors.
func (s *Span) render(b *strings.Builder, linePrefix, childPrefix string, withTimings bool) {
	b.WriteString(linePrefix)
	b.WriteString(s.name)
	if withTimings && s.dur > 0 {
		fmt.Fprintf(b, "  (%s)", s.dur.Round(time.Microsecond))
	}
	b.WriteByte('\n')
	s.mu.Lock()
	items := append([]item(nil), s.items...)
	s.mu.Unlock()
	for i, it := range items {
		connector, indent := "├─ ", "│  "
		if i == len(items)-1 {
			connector, indent = "└─ ", "   "
		}
		if it.child != nil {
			it.child.render(b, childPrefix+connector, childPrefix+indent, withTimings)
			continue
		}
		b.WriteString(childPrefix)
		b.WriteString(connector)
		b.WriteString(it.kind)
		if it.detail != "" {
			b.WriteString(": ")
			b.WriteString(it.detail)
		}
		b.WriteByte('\n')
	}
}
