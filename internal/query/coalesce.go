package query

import (
	"sync"

	"p2prange/internal/metrics"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/trace"
)

// metCoalesced counts fetches answered by joining another in-flight
// fetch for the same leaf instead of issuing their own lookup.
var metCoalesced = metrics.Default.Counter("query.coalesced")

// Coalescer deduplicates identical concurrent range fetches
// (singleflight): when several executions ask for the same
// relation.attribute range at the same moment, one of them performs the
// DHT lookup and data fetch while the rest wait for its result. Under a
// hot-key load this collapses l identifier probes per duplicate query
// into zero. Share one Coalescer per querying peer; Bind attaches it to
// the Source of one execution.
//
// Followers receive the leader's result values, so the underlying
// relation must be treated as read-only — which the executor already
// guarantees (operators build new relations rather than mutating
// inputs).
type Coalescer struct {
	mu       sync.Mutex
	inflight map[string]*flight
}

// flight is one in-progress fetch; done closes when results are set.
type flight struct {
	done    chan struct{}
	data    *relation.Relation
	covered rangeset.Range
	err     error
}

// NewCoalescer returns an empty Coalescer.
func NewCoalescer() *Coalescer {
	return &Coalescer{inflight: make(map[string]*flight)}
}

// Bind returns a Source view that routes Fetch through the coalescer
// and everything else straight to inner.
func (c *Coalescer) Bind(inner Source) Source {
	return &coalescedSource{c: c, inner: inner}
}

// fetch runs one coalesced fetch: the first caller for a key becomes the
// leader and executes src.Fetch; concurrent callers with the same key
// wait and share the leader's result. The leader's fetch serves several
// executions, so it records on no one's span.
func (c *Coalescer) fetch(src Source, rel, attribute string, rg rangeset.Range) (*relation.Relation, rangeset.Range, error) {
	key := rel + "\x00" + attribute + "\x00" + rg.String()
	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		metCoalesced.Inc()
		<-f.done
		return f.data, f.covered, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.data, f.covered, f.err = src.Fetch(rel, attribute, rg, nil)

	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.data, f.covered, f.err
}

// coalescedSource is the per-execution binding of a shared Coalescer to
// that execution's Source.
type coalescedSource struct {
	c     *Coalescer
	inner Source
}

func (s *coalescedSource) Fetch(rel, attribute string, rg rangeset.Range, _ *trace.Span) (*relation.Relation, rangeset.Range, error) {
	return s.c.fetch(s.inner, rel, attribute, rg)
}

func (s *coalescedSource) FetchAll(rel string) (*relation.Relation, error) {
	return s.inner.FetchAll(rel)
}

// SigStats forwards to the inner source when it reports signature stats.
func (s *coalescedSource) SigStats() metrics.SigSnapshot {
	if sp, ok := s.inner.(SigStatsProvider); ok {
		return sp.SigStats()
	}
	return metrics.SigSnapshot{}
}
