package flight

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"p2prange/internal/trace"
)

// finish drives the keep policy with a synthetic duration.
func finish(r *Recorder, name string, dur time.Duration, hops int, err error) {
	sp := trace.New(name)
	sp.End()
	r.record("lookup", sp, dur, hops, err)
}

func names(entries []*Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

func TestKeepPolicy(t *testing.T) {
	r := New(Config{SlowThreshold: 10 * time.Millisecond, HopThreshold: 8, Keep: 2, Recent: 4})
	finish(r, "fast", 1*time.Millisecond, 2, nil)
	finish(r, "slow-a", 15*time.Millisecond, 2, nil)
	finish(r, "erroring", 2*time.Millisecond, 2, errors.New("boom"))
	finish(r, "hoppy", 3*time.Millisecond, 12, nil)
	finish(r, "slow-b", 40*time.Millisecond, 2, nil)
	finish(r, "slow-c", 20*time.Millisecond, 2, nil)

	if got := names(r.Entries(RingSlow)); len(got) != 2 || got[0] != "slow-c" || got[1] != "slow-b" {
		t.Errorf("slow ring = %v, want [slow-c slow-b]", got)
	}
	if got := names(r.Entries(RingErrored)); len(got) != 1 || got[0] != "erroring" {
		t.Errorf("errored ring = %v, want [erroring]", got)
	}
	if got := names(r.Entries(RingHopHeavy)); len(got) != 1 || got[0] != "hoppy" {
		t.Errorf("hop-heavy ring = %v, want [hoppy]", got)
	}
	// Top-2 by duration across everything: slow-b (40ms), slow-c (20ms).
	if got := names(r.Entries(RingTop)); len(got) != 2 || got[0] != "slow-b" || got[1] != "slow-c" {
		t.Errorf("top ring = %v, want [slow-b slow-c]", got)
	}
	// Recent holds the last 4, newest first.
	if got := names(r.Entries(RingRecent)); len(got) != 4 || got[0] != "slow-c" || got[3] != "erroring" {
		t.Errorf("recent ring = %v", got)
	}

	st := r.Stats()
	if st.Finished != 6 || st.KeptSlow != 3 || st.KeptErrored != 1 || st.KeptHopHeavy != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.WorstName != "slow-b" || st.WorstUS != 40_000 {
		t.Errorf("worst = %s (%dus), want slow-b 40000us", st.WorstName, st.WorstUS)
	}
}

func TestKeepReasons(t *testing.T) {
	r := New(Config{SlowThreshold: 10 * time.Millisecond, HopThreshold: 8, Keep: 4, Recent: 4})
	finish(r, "everything", 20*time.Millisecond, 9, errors.New("boom"))
	e := r.Entries(RingSlow)[0]
	want := map[string]bool{"error": true, "slow": true, "hops": true, "top": true}
	if len(e.Kept) != len(want) {
		t.Fatalf("kept reasons = %v, want %v", e.Kept, want)
	}
	for _, k := range e.Kept {
		if !want[k] {
			t.Errorf("unexpected keep reason %q", k)
		}
	}
}

// TestKeepPolicyDeterministicConcurrent pins the tail-sampling
// determinism contract under -race: with distinct durations, the top-K
// set is exactly the K slowest no matter how concurrent finishers
// interleave, and every over-threshold query is retained.
func TestKeepPolicyDeterministicConcurrent(t *testing.T) {
	const n, keep = 64, 8
	r := New(Config{SlowThreshold: time.Duration(n-keep+1) * time.Millisecond, Keep: keep, Recent: n})
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			finish(r, fmt.Sprintf("q%03d", i), time.Duration(i)*time.Millisecond, 1, nil)
		}(i)
	}
	wg.Wait()

	top := r.Entries(RingTop)
	if len(top) != keep {
		t.Fatalf("top ring has %d entries, want %d", len(top), keep)
	}
	seen := map[string]bool{}
	for _, e := range top {
		seen[e.Name] = true
	}
	for i := n - keep + 1; i <= n; i++ {
		if name := fmt.Sprintf("q%03d", i); !seen[name] {
			t.Errorf("top ring lost %s (kept %v)", name, names(top))
		}
	}
	// The slow ring saw exactly the same K queries (threshold = n-keep+1 ms).
	if got := r.Stats().KeptSlow; got != keep {
		t.Errorf("kept %d slow queries, want %d", got, keep)
	}
}

func TestExemplarHook(t *testing.T) {
	var gotKind string
	var gotUS, gotID uint64
	r := New(Config{Exemplar: func(kind string, us, id uint64) { gotKind, gotUS, gotID = kind, us, id }})
	sp := trace.New("q")
	sp.End()
	r.record("lookup", sp, 5*time.Millisecond, 1, nil)
	if gotUS != 5000 {
		t.Errorf("exemplar us = %d, want 5000", gotUS)
	}
	if gotID != sp.TraceID() {
		t.Errorf("exemplar trace id = %d, want %d", gotID, sp.TraceID())
	}
	if gotKind != KindLookup {
		t.Errorf("exemplar kind = %q, want %q", gotKind, KindLookup)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.On() {
		t.Fatal("nil recorder reports On")
	}
	if sp := r.Start("x"); sp != nil {
		t.Fatal("nil recorder started a span")
	}
	r.Finish("lookup", nil, 0, nil) // must not panic
	if r.Entries(RingSlow) != nil || r.Stats().Finished != 0 {
		t.Fatal("nil recorder retained something")
	}
}

func TestTraceIDString(t *testing.T) {
	if got := TraceIDString(0xab); got != "00000000000000ab" {
		t.Errorf("TraceIDString(0xab) = %q", got)
	}
}

// BenchmarkFlightOff pins the disabled recorder's contract: the
// per-query cost with recording off is the nil guard alone — no name
// formatting, no allocation. make benchguard asserts 0 allocs/op.
func BenchmarkFlightOff(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sp *trace.Span
		if r.On() {
			sp = r.Start(fmt.Sprintf("lookup %d", i))
		}
		r.Finish("lookup", sp, 1, nil)
	}
}

// BenchmarkFlightRecord is the recorder-on cost per query: one root
// span with a child and an event (a miniature protocol run), finished
// into the rings. Retention is pointer moves into preallocated rings,
// so allocs/op stays a small constant (the span tree plus one Entry) —
// make benchguard asserts the bound.
func BenchmarkFlightRecord(b *testing.B) {
	r := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.Start("lookup Patient.age [30,50]")
		ps := sp.Child("probe 1/1")
		ps.Event("owner", "deadbeef hops=1")
		ps.End()
		r.Finish("lookup", sp, 1, nil)
	}
}

// TestConcurrentRecordFinishRender runs the always-on recorder's worst
// interleaving under -race: workers open children, record formatted
// events and graft serve fragments on one trace while the recorder
// finishes it and another goroutine renders the tree and exports it.
// The finished tree must hold every entry exactly once.
func TestConcurrentRecordFinishRender(t *testing.T) {
	r := New(Config{})
	root := r.Start("lookup Patient.age [30,50]")
	const workers, perWorker = 4, 50

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = root.Tree(true)
			_ = root.Export()
			for _, e := range r.Entries(RingRecent) {
				_ = e.Root.String()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				bs := root.Childf("batch @peer%d: %d probe(s)", w, 1)
				sp := trace.Remote(bs.Context("origin"), "serve FindBestBatch")
				sp.Eventf("best", "id=%08x score=%.3f", uint32(w<<16|i), 1.0)
				sp.End()
				bs.GraftFragments(sp.Fragment())
				bs.Eventf("match", "probe %d: worker %d", i, w)
				bs.End()
			}
		}(w)
	}
	time.Sleep(time.Millisecond)
	r.Finish(KindLookup, root, 0, nil)
	writers.Wait()
	close(stop)
	readers.Wait()

	tree := root.Tree(false)
	for w := 0; w < workers; w++ {
		if got := strings.Count(tree, fmt.Sprintf("batch @peer%d: 1 probe(s)\n", w)); got != perWorker {
			t.Errorf("worker %d: %d batch spans in the tree, want %d", w, got, perWorker)
		}
	}
	if got := strings.Count(tree, "serve FindBestBatch\n"); got != workers*perWorker {
		t.Errorf("%d grafted serve spans, want %d", got, workers*perWorker)
	}
	if got := strings.Count(tree, "score=1.000\n"); got != workers*perWorker {
		t.Errorf("%d grafted events, want %d", got, workers*perWorker)
	}
	if w := root.Export(); len(w.Items) != workers*perWorker {
		t.Errorf("export has %d items, want %d", len(w.Items), workers*perWorker)
	}
	if e := r.Entries(RingRecent); len(e) != 1 || e[0].Root != root {
		t.Errorf("recent ring = %v, want the finished root", names(e))
	}
}
