package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers get-or-create, increments, func-family
// registration, and snapshots from many goroutines at once; run under
// -race (make check) this pins the registry's concurrency safety.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared.counter").Inc()
				r.Counter(fmt.Sprintf("own.counter%d", w)).Inc()
				r.Gauge("shared.gauge").Add(1)
				r.IntHistogram("shared.hist").Observe(uint64(i))
				if i%100 == 0 {
					r.RegisterFunc("fam", func() map[string]uint64 {
						return map[string]uint64{"x": 1}
					})
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.Counters["shared.counter"]; got != workers*perWorker {
		t.Errorf("shared.counter = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := s.Counters[fmt.Sprintf("own.counter%d", w)]; got != perWorker {
			t.Errorf("own.counter%d = %d, want %d", w, got, perWorker)
		}
	}
	if got := s.Gauges["shared.gauge"]; got != workers*perWorker {
		t.Errorf("shared.gauge = %d, want %d", got, workers*perWorker)
	}
	if got := s.Histograms["shared.hist"].Count; got != workers*perWorker {
		t.Errorf("shared.hist count = %d, want %d", got, workers*perWorker)
	}
	if got := s.Counters["fam.x"]; got != 1 {
		t.Errorf("fam.x = %d, want 1", got)
	}
}

func TestRegistrySnapshotSubAndReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.events")
	h := r.IntHistogram("a.hist")
	g := r.Gauge("a.level")

	c.Add(3)
	h.Observe(4)
	g.Set(7)
	before := r.Snapshot()

	c.Add(2)
	h.Observe(4)
	h.Observe(100)
	g.Set(9)
	delta := r.Snapshot().Sub(before)

	if got := delta.Counters["a.events"]; got != 2 {
		t.Errorf("counter delta = %d, want 2", got)
	}
	if got := delta.Histograms["a.hist"].Count; got != 2 {
		t.Errorf("hist delta count = %d, want 2", got)
	}
	if got := delta.Histograms["a.hist"].Sum; got != 104 {
		t.Errorf("hist delta sum = %d, want 104", got)
	}
	// Gauges are levels: the current value passes through.
	if got := delta.Gauges["a.level"]; got != 9 {
		t.Errorf("gauge in delta = %d, want 9", got)
	}
	// Untouched counters drop out of the delta entirely.
	r.Counter("b.idle")
	if _, ok := r.Snapshot().Sub(before).Counters["b.idle"]; ok {
		t.Error("zero-delta counter should be omitted from Sub")
	}

	r.Reset()
	s := r.Snapshot()
	if s.Counters["a.events"] != 0 || s.Gauges["a.level"] != 0 || s.Histograms["a.hist"].Count != 0 {
		t.Errorf("Reset left non-zero state: %+v", s)
	}
	// Handles stay valid across Reset.
	c.Inc()
	if got := r.Snapshot().Counters["a.events"]; got != 1 {
		t.Errorf("counter after reset = %d, want 1", got)
	}
}

func TestIntHistogramBuckets(t *testing.T) {
	var h IntHistogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	want := map[uint64]uint64{0: 1, 1: 1, 2: 2, 4: 2, 8: 1, 512: 1}
	for _, b := range s.Buckets {
		if want[b.Lo] != b.Count {
			t.Errorf("bucket lo=%d count=%d, want %d", b.Lo, b.Count, want[b.Lo])
		}
		delete(want, b.Lo)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
}

// TestSnapshotJSON pins that snapshots marshal cleanly — the contract
// peerd's expvar page and rangebench -metrics-out rely on.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("route.lookups").Add(5)
	r.Gauge("peer.partitions").Set(2)
	r.IntHistogram("chord.hops").Observe(3)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counters["route.lookups"] != 5 {
		t.Errorf("round trip lost counter: %s", b)
	}
}

// TestStatsMirrorIntoDefault pins the fold-in: SigStats updates
// (including through nil receivers) surface as sig.* counters of the
// Default registry.
func TestStatsMirrorIntoDefault(t *testing.T) {
	before := Default.Snapshot()

	var ss SigStats
	ss.AddHit()
	var nilSS *SigStats
	nilSS.AddMiss()

	d := Default.Snapshot().Sub(before)
	for name, want := range map[string]uint64{
		"sig.hits":   1,
		"sig.misses": 1,
	} {
		if got := d.Counters[name]; got < want {
			t.Errorf("%s delta = %d, want >= %d", name, got, want)
		}
	}
	ss.Reset()
	if ss.Snapshot() != (SigSnapshot{}) {
		t.Error("SigStats.Reset left non-zero counters")
	}
}

// TestHotPathAllocs pins the zero-allocation contract of the metric
// handles themselves (counter add, gauge set, histogram observe).
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.c")
	g := r.Gauge("x.g")
	h := r.IntHistogram("x.h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(4)
		h.Observe(9)
	})
	if allocs != 0 {
		t.Errorf("hot path allocates %v allocs/op, want 0", allocs)
	}
}
