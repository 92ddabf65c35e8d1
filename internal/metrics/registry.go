package metrics

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file is the unified metrics registry: named counters, gauges, and
// integer histograms behind one concurrency-safe surface with snapshot
// and reset. Every instrumented package feeds the process-wide Default
// registry (sig.* arrives automatically through the SigStats mirror in
// sig.go), so one Snapshot describes a whole run — peerd serves it as
// expvar JSON, rangebench dumps it per experiment, and tests diff it
// around operations.

// Counter is a monotonically increasing event count. All methods are safe
// for concurrent use and tolerate a nil receiver, so call sites never
// guard against metrics being disabled. Obtain one with Registry.Counter;
// cache the handle in a package variable so the hot path is a single
// atomic add.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (stored partitions, open connections).
// Safe for concurrent use; nil receivers no-op.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// IntHistogram counts non-negative integer observations (hop counts,
// microsecond durations) in power-of-two buckets: bucket 0 holds the
// value 0 and bucket i>0 holds [2^(i-1), 2^i). Observing is one atomic
// add with no allocation, so it is safe on hot paths. Nil receivers
// no-op.
type IntHistogram struct {
	buckets   [65]atomic.Uint64 // indexed by bits.Len64(value)
	sum       atomic.Uint64
	exemplars [65]atomic.Pointer[Exemplar]
}

// Observe records one value.
func (h *IntHistogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// Exemplar is one concrete observation pinned to a histogram bucket with
// the trace identity that produced it — the OpenMetrics exemplar the
// Prometheus exposition attaches to bucket lines, so a latency outlier on
// a dashboard resolves to a trace the flight recorder may have retained.
type Exemplar struct {
	Value   uint64 `json:"value"`
	TraceID string `json:"trace_id"`
}

// SetExemplar pins (v, traceID) as the exemplar of v's bucket, replacing
// any previous one. It does not count an observation — the caller already
// Observed v (or chose not to); exemplars are annotation, not data.
func (h *IntHistogram) SetExemplar(v uint64, traceID string) {
	if h == nil || traceID == "" {
		return
	}
	h.exemplars[bits.Len64(v)].Store(&Exemplar{Value: v, TraceID: traceID})
}

// HistBucket is one non-empty power-of-two bucket of a histogram
// snapshot: Count observations fell in [Lo, Hi]. Exemplar, when present,
// is one concrete observation from the bucket with its trace ID.
type HistBucket struct {
	Lo       uint64    `json:"lo"`
	Hi       uint64    `json:"hi"`
	Count    uint64    `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// HistSnapshot is a point-in-time copy of an IntHistogram.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Mean    float64      `json:"mean"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. A nil histogram yields a
// zero snapshot.
func (h *IntHistogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		b := HistBucket{Count: c, Exemplar: h.exemplars[i].Load()}
		if i > 0 {
			b.Lo = 1 << (i - 1)
			b.Hi = 1<<i - 1
		}
		s.Buckets = append(s.Buckets, b)
		s.Count += c
	}
	s.Sum = h.sum.Load()
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed values
// by linear interpolation inside the power-of-two bucket where the
// cumulative count crosses q. The coarse buckets bound the error to the
// bucket width — adequate for the p50/p95/p99 summaries exposition and
// rollups report, where order of magnitude and trend matter, not exact
// microseconds. An empty snapshot returns 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if next >= rank {
			if b.Hi == b.Lo {
				return float64(b.Lo)
			}
			frac := 0.0
			if b.Count > 0 {
				frac = (rank - cum) / float64(b.Count)
			}
			return float64(b.Lo) + frac*float64(b.Hi-b.Lo)
		}
		cum = next
	}
	last := s.Buckets[len(s.Buckets)-1]
	return float64(last.Hi)
}

// Sub returns the observation deltas since prev (bucket-wise), for
// per-operation accounting over a cumulative histogram.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	prevAt := make(map[uint64]uint64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevAt[b.Lo] = b.Count
	}
	out := HistSnapshot{Sum: s.Sum - prev.Sum}
	for _, b := range s.Buckets {
		b.Count -= prevAt[b.Lo]
		if b.Count == 0 {
			continue
		}
		out.Buckets = append(out.Buckets, b)
		out.Count += b.Count
	}
	if out.Count > 0 {
		out.Mean = float64(out.Sum) / float64(out.Count)
	}
	return out
}

// Registry is a named family of counters, gauges, and histograms. Names
// are dotted "family.metric" strings ("route.lookups", "sig.hits");
// get-or-create accessors make registration implicit and idempotent, so
// independent packages can share one registry without coordination. All
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*IntHistogram
	funcs    map[string]func() map[string]uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*IntHistogram),
		funcs:    make(map[string]func() map[string]uint64),
	}
}

// Default is the process-wide registry every instrumented package feeds:
// chord routing (route.*), the signature cache (sig.*), the peer
// protocol (peer.*), the SQL executor (query.*), the transports
// (transport.*), and the alternative substrates (can.*, flood.*).
// Totals aggregate across all instances in the process — every simulated
// peer of a cluster, or the single peer of a live daemon.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// IntHistogram returns the named histogram, creating it on first use.
func (r *Registry) IntHistogram(name string) *IntHistogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &IntHistogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc installs an external counter family: fn is called at
// snapshot time and its entries appear as "family.key" counters. Use it
// for state owned elsewhere (a peer's stored-descriptor count) that is
// cheaper to read on demand than to mirror on every change. Registering
// the same family again replaces the previous fn.
func (r *Registry) RegisterFunc(family string, fn func() map[string]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[family] = fn
}

// Snapshot is a point-in-time copy of a registry: counter and gauge
// values plus histogram summaries, keyed by metric name. It marshals
// directly to the JSON peerd serves and rangebench dumps.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value (each read atomically; the
// set is not a transaction). Func families are evaluated and merged into
// Counters under "family.key".
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)+len(r.funcs)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	funcs := make(map[string]func() map[string]uint64, len(r.funcs))
	for fam, fn := range r.funcs {
		funcs[fam] = fn
	}
	r.mu.RUnlock()
	// Evaluate func families outside the lock: they may call back into
	// code that touches this registry.
	for fam, fn := range funcs {
		for key, v := range fn() {
			s.Counters[fam+"."+key] = v
		}
	}
	return s
}

// Sub returns the counter and histogram deltas since prev, for
// per-operation accounting over the cumulative registry. Gauges are
// levels, not accumulations, so the current values pass through
// unchanged. Zero-delta counters are dropped, keeping experiment dumps
// small.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     s.Gauges,
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			out.Counters[name] = d
		}
	}
	for name, h := range s.Histograms {
		if d := h.Sub(prev.Histograms[name]); d.Count != 0 {
			out.Histograms[name] = d
		}
	}
	return out
}

// Reset zeroes every counter, gauge, and histogram the registry owns.
// Func families read external state and are not resettable here; reset
// their owners if needed. Handles remain valid across a reset.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
			h.exemplars[i].Store(nil)
		}
		h.sum.Store(0)
	}
}
