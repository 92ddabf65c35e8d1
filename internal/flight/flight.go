// Package flight is the always-on flight recorder: every query run by a
// live peer gets a real root span (the same trace.Span tree `-trace`
// builds, including serve spans grafted back from remote peers), and
// when the query finishes, a tail-based keep policy decides whether the
// tree is interesting enough to pin. "Interesting" is decided *after*
// the fact — slow (over a configurable threshold, or among the top-K by
// duration), errored, or hop-heavy — which is the property head-based
// sampling cannot have: the recorder never throws away the one query the
// operator will ask about, because it decides with the outcome in hand.
//
// Costs are bounded by construction. A disabled recorder is a nil
// *Recorder: every method no-ops, callers guard name formatting behind
// On(), and the per-query cost is exactly the nil-span fast path the
// trace layer already pins at 0 allocs/op (BenchmarkFlightOff). An
// enabled recorder allocates the span tree the query builds anyway plus
// one Entry, and retention is pointer-moves into fixed-size rings — no
// tree is ever copied, kept or not (BenchmarkFlightRecord pins the
// amortized bound). Memory is ring sizes × tree size, with tree size
// itself capped by trace.MaxSpanItems/MaxTraceSpans.
package flight

import (
	"strconv"
	"sync"
	"time"

	"p2prange/internal/trace"
)

// Defaults for Config's zero values.
const (
	// DefaultSlowThreshold promotes a finished query into the slow ring.
	// 25ms is in "a human notices" territory for an interactive lookup
	// while being far above a healthy loopback protocol run, so an
	// unconfigured peerd keeps genuinely bad queries, not noise.
	DefaultSlowThreshold = 25 * time.Millisecond
	// DefaultHopThreshold promotes hop-heavy queries: the paper's l
	// probes each route in O(log N) hops, so a total this high means
	// routing detoured hard (churn, suspects) or the ring degenerated.
	DefaultHopThreshold = 16
	// DefaultKeep is the pinned capacity of each retention ring.
	DefaultKeep = 32
	// DefaultRecent is the capacity of the everything ring.
	DefaultRecent = 128
)

// Entry kinds: what the recorded root span was doing.
const (
	KindLookup  = "lookup"
	KindQuery   = "query"
	KindPublish = "publish"
	KindServe   = "serve"
)

// Config parameterizes a Recorder. Zero values take the defaults above.
type Config struct {
	// SlowThreshold is the duration at which a finished query is kept in
	// the slow ring.
	SlowThreshold time.Duration
	// HopThreshold is the total chord hop count at which a query is kept
	// in the hop-heavy ring.
	HopThreshold int
	// Keep is the capacity of each pinned retention ring (slow, top,
	// errored, hop-heavy).
	Keep int
	// Recent is the capacity of the most-recent ring.
	Recent int
	// Exemplar, when set, is called once per finished query with its
	// kind, duration in microseconds, and trace ID — the hook the metrics
	// layer uses to attach trace-ID exemplars to latency histogram
	// buckets (kind lets it route lookups and serves to different
	// histograms).
	Exemplar func(kind string, durUS, traceID uint64)
}

// Entry is one finished, recorded query.
type Entry struct {
	// Seq orders entries by finish time (1 = first finished).
	Seq uint64
	// Kind classifies the root: "lookup", "query" (SQL), "publish", or
	// "serve" (a request this peer answered for another peer).
	Kind string
	// Name is the root span's name.
	Name string
	// TraceID correlates the entry with exemplars and remote fragments.
	TraceID uint64
	// Start and Dur frame the query in time.
	Start time.Time
	Dur   time.Duration
	// Hops is the total chord hop count (-1 when not applicable).
	Hops int
	// Err is the failure, "" on success.
	Err string
	// Kept lists the retention reasons ("slow", "top", "error", "hops");
	// empty for entries only in the recent ring.
	Kept []string
	// Root is the retained span tree — shared with the rings, never
	// copied. Render with Root.Tree.
	Root *trace.Span
}

// ring is a fixed-capacity overwrite buffer of entries.
type ring struct {
	buf  []*Entry
	next int
	n    uint64 // total pushes
}

func (r *ring) push(e *Entry) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	r.n++
}

// entries returns the ring's contents, newest first.
func (r *ring) entries() []*Entry {
	out := make([]*Entry, 0, len(r.buf))
	for i := 1; i <= len(r.buf); i++ {
		e := r.buf[(r.next-i+len(r.buf))%len(r.buf)]
		if e == nil {
			break
		}
		out = append(out, e)
	}
	return out
}

// Recorder retains finished query traces. A nil *Recorder is the
// disabled recorder: every method no-ops.
type Recorder struct {
	cfg Config

	mu       sync.Mutex
	seq      uint64
	recent   ring
	slow     ring
	errored  ring
	hopheavy ring
	top      []*Entry // the Keep slowest since boot, unordered
}

// New builds a Recorder, applying defaults for zero Config fields.
func New(cfg Config) *Recorder {
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.HopThreshold <= 0 {
		cfg.HopThreshold = DefaultHopThreshold
	}
	if cfg.Keep <= 0 {
		cfg.Keep = DefaultKeep
	}
	if cfg.Recent <= 0 {
		cfg.Recent = DefaultRecent
	}
	return &Recorder{
		cfg:      cfg,
		recent:   ring{buf: make([]*Entry, cfg.Recent)},
		slow:     ring{buf: make([]*Entry, cfg.Keep)},
		errored:  ring{buf: make([]*Entry, cfg.Keep)},
		hopheavy: ring{buf: make([]*Entry, cfg.Keep)},
		top:      make([]*Entry, 0, cfg.Keep),
	}
}

// On reports whether recording is enabled. Guard root-span name
// formatting behind it, exactly like trace.Span.On.
func (r *Recorder) On() bool { return r != nil }

// SlowThreshold returns the configured slow cutoff (0 when disabled).
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.SlowThreshold
}

// Start opens an always-sampled root span for a query. It returns nil
// when recording is off, so the query runs on the nil-span fast path.
// The caller must format name only after checking On().
func (r *Recorder) Start(name string) *trace.Span {
	if r == nil {
		return nil
	}
	return trace.New(name)
}

// Finish records a completed query: ends sp if the caller has not,
// classifies the outcome, and applies the keep policy. hops is the
// total chord hop count (pass -1 when the query has no hop notion,
// e.g. SQL or serve-side work). Nil recorder or nil span no-op.
func (r *Recorder) Finish(kind string, sp *trace.Span, hops int, err error) {
	if r == nil || sp == nil {
		return
	}
	sp.End()
	r.record(kind, sp, sp.Duration(), hops, err)
}

// record applies the keep policy under the lock. Split from Finish so
// tests can drive it with synthetic durations: the policy itself must be
// deterministic — given a set of finished queries, the kept *set* is a
// pure function of their durations/errors/hops, regardless of the
// interleaving of concurrent finishers.
func (r *Recorder) record(kind string, sp *trace.Span, dur time.Duration, hops int, err error) {
	e := &Entry{
		Kind:    kind,
		Name:    sp.Name(),
		TraceID: sp.TraceID(),
		Dur:     dur,
		Hops:    hops,
	}
	e.Start = time.Now().Add(-dur)
	e.Root = sp
	if err != nil {
		e.Err = err.Error()
	}

	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.recent.push(e)
	if e.Err != "" {
		e.Kept = append(e.Kept, "error")
		r.errored.push(e)
	}
	if dur >= r.cfg.SlowThreshold {
		e.Kept = append(e.Kept, "slow")
		r.slow.push(e)
	}
	if hops >= r.cfg.HopThreshold {
		e.Kept = append(e.Kept, "hops")
		r.hopheavy.push(e)
	}
	// Top-K by duration since boot: replace the current minimum when the
	// new entry beats it. Ties keep the incumbent, so with distinct
	// durations the surviving set is exactly the K largest no matter how
	// concurrent finishers interleave.
	if len(r.top) < cap(r.top) {
		e.Kept = append(e.Kept, "top")
		r.top = append(r.top, e)
	} else if len(r.top) > 0 {
		min := 0
		for i, t := range r.top {
			if t.Dur < r.top[min].Dur {
				min = i
			}
		}
		if r.top[min].Dur < dur {
			e.Kept = append(e.Kept, "top")
			r.top[min] = e
		}
	}
	r.mu.Unlock()

	if r.cfg.Exemplar != nil {
		us := dur.Microseconds()
		if us < 0 {
			us = 0
		}
		r.cfg.Exemplar(kind, uint64(us), e.TraceID)
	}
}

// Ring names accepted by Entries and the /debug/flight surface.
const (
	RingRecent   = "recent"
	RingSlow     = "slow"
	RingErrored  = "errored"
	RingHopHeavy = "hops"
	RingTop      = "top"
)

// Entries snapshots one ring, newest first ("top" is ordered slowest
// first instead — it has no recency notion). Unknown names and a nil
// recorder return nil. The returned entries share the retained trees;
// treat them as read-only.
func (r *Recorder) Entries(ring string) []*Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ring {
	case RingRecent:
		return r.recent.entries()
	case RingSlow:
		return r.slow.entries()
	case RingErrored:
		return r.errored.entries()
	case RingHopHeavy:
		return r.hopheavy.entries()
	case RingTop:
		out := append([]*Entry(nil), r.top...)
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].Dur > out[j-1].Dur; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	return nil
}

// Stats is the recorder's rollup for /status.
type Stats struct {
	Finished     uint64 `json:"finished"`
	KeptSlow     uint64 `json:"kept_slow"`
	KeptErrored  uint64 `json:"kept_errored"`
	KeptHopHeavy uint64 `json:"kept_hop_heavy"`

	SlowThresholdUS int64 `json:"slow_threshold_us"`
	HopThreshold    int   `json:"hop_threshold"`

	// Worst* describe the slowest entry still in the recent ring — the
	// "worst recent query" rangetop shows per peer.
	WorstUS      int64  `json:"worst_us,omitempty"`
	WorstName    string `json:"worst_name,omitempty"`
	WorstTraceID string `json:"worst_trace_id,omitempty"`
}

// Stats snapshots the recorder's counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Finished:        r.seq,
		KeptSlow:        r.slow.n,
		KeptErrored:     r.errored.n,
		KeptHopHeavy:    r.hopheavy.n,
		SlowThresholdUS: r.cfg.SlowThreshold.Microseconds(),
		HopThreshold:    r.cfg.HopThreshold,
	}
	for _, e := range r.recent.buf {
		if e != nil && e.Dur.Microseconds() > s.WorstUS {
			s.WorstUS = e.Dur.Microseconds()
			s.WorstName = e.Name
			s.WorstTraceID = TraceIDString(e.TraceID)
		}
	}
	return s
}

// TraceIDString formats a trace ID the way exemplars and the /debug
// surfaces print it.
func TraceIDString(id uint64) string {
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// View is an Entry in JSON-renderable form, tree included.
type View struct {
	Seq     uint64    `json:"seq"`
	Kind    string    `json:"kind"`
	Name    string    `json:"name"`
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	DurUS   int64     `json:"dur_us"`
	Dur     string    `json:"dur"`
	Hops    int       `json:"hops,omitempty"`
	Err     string    `json:"err,omitempty"`
	Kept    []string  `json:"kept,omitempty"`
	Tree    string    `json:"tree,omitempty"`
}

// RenderView converts an entry for the JSON surfaces, rendering the
// span tree (with timings) when withTree is set.
func RenderView(e *Entry, withTree bool) View {
	v := View{
		Seq:     e.Seq,
		Kind:    e.Kind,
		Name:    e.Name,
		TraceID: TraceIDString(e.TraceID),
		Start:   e.Start,
		DurUS:   e.Dur.Microseconds(),
		Dur:     e.Dur.Round(time.Microsecond).String(),
		Hops:    e.Hops,
		Err:     e.Err,
		Kept:    e.Kept,
	}
	if withTree {
		v.Tree = e.Root.Tree(true)
	}
	return v
}

// String summarizes an entry in one line (rangeql \slow, log dumps).
func (e *Entry) String() string {
	s := "#" + strconv.FormatUint(e.Seq, 10) + " " + e.Dur.Round(time.Microsecond).String() + " " + e.Name
	if e.Err != "" {
		s += " err=" + e.Err
	}
	return s
}
