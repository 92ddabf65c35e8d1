package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestContextNilAndSampled(t *testing.T) {
	var nilSpan *Span
	if tc := nilSpan.Context("a:1"); tc.Sampled || tc.TraceID != 0 || tc.SpanID != 0 {
		t.Errorf("nil span context = %+v, want zero", tc)
	}
	s := New("op")
	tc := s.Context("a:1")
	if !tc.Sampled {
		t.Error("live span context not sampled")
	}
	if tc.TraceID != s.traceID || tc.SpanID != s.spanID {
		t.Errorf("context ids = %d/%d, want %d/%d", tc.TraceID, tc.SpanID, s.traceID, s.spanID)
	}
	if tc.Caller != "a:1" {
		t.Errorf("caller = %q", tc.Caller)
	}
}

func TestRemote(t *testing.T) {
	if r := Remote(Context{}, "serve"); r != nil {
		t.Error("unsampled context produced a span")
	}
	s := New("op")
	tc := s.Context("a:1")
	r := Remote(tc, "serve")
	if r == nil {
		t.Fatal("sampled context produced nil span")
	}
	if r.traceID != s.traceID {
		t.Errorf("remote traceID = %d, want %d", r.traceID, s.traceID)
	}
	if r.parent != s.spanID {
		t.Errorf("remote parent = %d, want caller span %d", r.parent, s.spanID)
	}
	if r.t == s.t || r.t.budget.Load() != MaxTraceSpans-1 {
		t.Error("remote span must carry its own tree and fresh budget")
	}
}

func TestExportGraftRoundTrip(t *testing.T) {
	r := Remote(New("root").Context("caller"), "serve FindBest @b:2")
	r.Event("from", "caller")
	c := r.Child("scan")
	c.Event("hop", "n3")
	c.End()
	r.End()
	r.dur = 5 * time.Millisecond // sub-microsecond real timings export as 0

	w := r.Export()
	if w.Name != "serve FindBest @b:2" || len(w.Items) != 2 {
		t.Fatalf("export = %+v", w)
	}
	if w.DurUS <= 0 {
		t.Error("export lost the duration")
	}

	local := New("query")
	local.Graft(w)
	local.End()
	want := strings.Join([]string{
		"query",
		"└─ serve FindBest @b:2",
		"   ├─ from: caller",
		"   └─ scan",
		"      └─ hop: n3",
		"",
	}, "\n")
	if got := local.Tree(false); got != want {
		t.Errorf("grafted tree:\n%s\nwant:\n%s", got, want)
	}

	// The grafted copy keeps the remote duration.
	if grafted := local.Export().Items[0].Child; grafted.DurUS <= 0 {
		t.Error("graft dropped the remote duration")
	}
}

func TestGraftIgnoresEmptyAndNil(t *testing.T) {
	var nilSpan *Span
	nilSpan.Graft(Wire{Name: "x"}) // must not panic
	nilSpan.GraftFragments(AppendFragments(nil, Wire{Name: "x"}))

	s := New("root")
	s.Graft(Wire{}) // zero fragment: the nil-span export
	if got := s.Tree(false); got != "root\n" {
		t.Errorf("zero fragment grafted something: %q", got)
	}
}

func TestSpanItemCap(t *testing.T) {
	s := New("root")
	for i := 0; i < MaxSpanItems+10; i++ {
		s.Event("e", "d")
	}
	items := s.Export().Items
	n := len(items)
	last := items[n-1]
	if n != MaxSpanItems+1 {
		t.Errorf("items = %d, want cap %d plus one marker", n, MaxSpanItems+1)
	}
	if last.Kind != "truncated" {
		t.Errorf("last item = %q, want truncated marker", last.Kind)
	}
}

func TestTraceSpanBudget(t *testing.T) {
	root := New("root")
	s, n := root, 0
	for {
		c := s.Child("c")
		if c == nil {
			break
		}
		s = c
		n++
	}
	// The root spends one span; descendants get the rest.
	if n != MaxTraceSpans-1 {
		t.Errorf("budget allowed %d descendants, want %d", n, MaxTraceSpans-1)
	}
	items := s.Export().Items
	last := items[len(items)-1]
	if last.Kind != "truncated" || !strings.Contains(last.Detail, "budget") {
		t.Errorf("deepest span marker = %q/%q, want budget truncation", last.Kind, last.Detail)
	}

	// Grafting onto an exhausted trace degrades to a no-op, not growth.
	s.Graft(Wire{Name: "late fragment", Items: []WireItem{{Kind: "hop", Detail: "n1"}}})
	if strings.Contains(s.Tree(false), "late fragment") {
		t.Error("graft ignored the exhausted span budget")
	}
}

// TestConcurrentGraft exercises fragment merging under -race: parallel
// probes graft their remote fragments into one parent while local events
// append alongside.
func TestConcurrentGraft(t *testing.T) {
	root := New("lookup")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				frag := Wire{
					Name: fmt.Sprintf("serve @peer%d", w),
					Items: []WireItem{
						{Kind: "from", Detail: "origin"},
						{Child: &Wire{Name: "scan", Items: []WireItem{{Kind: "hop", Detail: "n"}}}},
					},
				}
				root.Graft(frag)
				root.Event("hop", "local")
			}
		}(w)
	}
	wg.Wait()
	root.End()
	tree := root.Tree(false)
	for w := 0; w < workers; w++ {
		if got := strings.Count(tree, fmt.Sprintf("serve @peer%d", w)); got != perWorker {
			t.Errorf("worker %d: %d fragments in tree, want %d", w, got, perWorker)
		}
	}
	if got := strings.Count(tree, "hop: local"); got != workers*perWorker {
		t.Errorf("%d local events, want %d", got, workers*perWorker)
	}
}

// TestFragmentMatchesExport pins the serve path's one encoding: a tree
// encoded straight from its buffer (Fragment) has exactly the bytes of
// its exported Wire encoded field by field, grafted subtrees and texts
// long enough to need a two-byte length included.
func TestFragmentMatchesExport(t *testing.T) {
	r := Remote(New("root").Context("caller"), "serve FindBestBatch @b:2")
	r.Event("from", "caller")
	c := r.Childf("seg.read %s", strings.Repeat("n", 130))
	c.Eventf("scan", "bucket %08x: %d disk candidate(s)", uint32(0xbeef), 3)
	c.End()
	inner := Remote(c.Context("b:2"), "serve Load @c:3")
	inner.Event("load", "7")
	inner.End()
	c.GraftFragments(inner.Fragment())
	r.Eventf("best", "id=%08x %s", uint32(7), strings.Repeat("d", 200))
	r.End()
	r.dur = 5 * time.Millisecond

	got, want := r.Fragment(), AppendFragments(nil, r.Export())
	if !bytes.Equal(got, want) {
		t.Fatalf("Fragment() = %x\nexported  = %x", got, want)
	}
	local := New("query")
	local.GraftFragments(got)
	var g strings.Builder
	local.Export().Items[0].Child.render(&g, "", "", false)
	if w := r.Tree(false); g.String() != w {
		t.Errorf("grafted tree renders\n%s\nwant\n%s", g.String(), w)
	}
}
