package query

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/trace"
)

// gateSource counts Fetch calls and blocks each one until released, so
// tests can force overlap between concurrent fetches.
type gateSource struct {
	calls   atomic.Int64
	release chan struct{}
	err     error
}

func (g *gateSource) Fetch(rel, attribute string, rg rangeset.Range, _ *trace.Span) (*relation.Relation, rangeset.Range, error) {
	g.calls.Add(1)
	<-g.release
	if g.err != nil {
		return nil, rangeset.Range{}, g.err
	}
	return &relation.Relation{}, rg, nil
}

func (g *gateSource) FetchAll(rel string) (*relation.Relation, error) {
	return &relation.Relation{}, nil
}

func TestCoalescerSharesOneFlight(t *testing.T) {
	g := &gateSource{release: make(chan struct{})}
	c := NewCoalescer()
	src := c.Bind(g)
	rg := rangeset.Range{Lo: 10, Hi: 20}

	const n = 16
	coalescedBefore := metCoalesced.Value()
	var wg sync.WaitGroup
	results := make([]*relation.Relation, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, covered, err := src.Fetch("R", "a", rg, nil)
			if err != nil || covered != rg {
				t.Errorf("fetch %d: covered=%v err=%v", i, covered, err)
			}
			results[i] = data
		}(i)
	}
	// Followers bump query.coalesced before waiting on the flight; hold
	// the leader inside Fetch until all n-1 followers have joined it.
	for metCoalesced.Value()-coalescedBefore < n-1 {
	}
	close(g.release)
	wg.Wait()

	if got := g.calls.Load(); got != 1 {
		t.Errorf("inner Fetch called %d times, want 1 (coalesced)", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Errorf("fetch %d got a different relation than the leader", i)
		}
	}
}

func TestCoalescerDistinctKeysRunIndependently(t *testing.T) {
	g := &gateSource{release: make(chan struct{})}
	close(g.release) // no blocking needed
	c := NewCoalescer()
	src := c.Bind(g)
	src.Fetch("R", "a", rangeset.Range{Lo: 0, Hi: 5}, nil)
	src.Fetch("R", "a", rangeset.Range{Lo: 0, Hi: 6}, nil)
	src.Fetch("R", "b", rangeset.Range{Lo: 0, Hi: 5}, nil)
	src.Fetch("S", "a", rangeset.Range{Lo: 0, Hi: 5}, nil)
	if got := g.calls.Load(); got != 4 {
		t.Errorf("inner Fetch called %d times, want 4 distinct flights", got)
	}
	// Sequential repeats are not coalesced either: the flight is gone.
	src.Fetch("R", "a", rangeset.Range{Lo: 0, Hi: 5}, nil)
	if got := g.calls.Load(); got != 5 {
		t.Errorf("inner Fetch called %d times, want 5", got)
	}
}

func TestCoalescerPropagatesErrors(t *testing.T) {
	wantErr := errors.New("source down")
	g := &gateSource{release: make(chan struct{}), err: wantErr}
	c := NewCoalescer()
	src := c.Bind(g)
	rg := rangeset.Range{Lo: 1, Hi: 2}

	coalescedBefore := metCoalesced.Value()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = src.Fetch("R", "a", rg, nil)
		}(i)
	}
	for metCoalesced.Value()-coalescedBefore < uint64(len(errs)-1) {
	}
	close(g.release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Errorf("fetch %d: err = %v, want %v", i, err, wantErr)
		}
	}
}
