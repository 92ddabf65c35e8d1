package trace

import (
	"strings"
	"testing"
	"time"
)

func TestTreeRendering(t *testing.T) {
	root := New("query")
	root.Event("parse", "SELECT ...")
	probe := root.Child("probe 1/2")
	probe.Event("hop", "node 3")
	probe.Event("hop", "node 7")
	probe.End()
	p2 := root.Child("probe 2/2")
	p2.Event("detour", "node 5 suspect")
	p2.End()
	root.End()

	got := root.Tree(false)
	want := strings.Join([]string{
		"query",
		"├─ parse: SELECT ...",
		"├─ probe 1/2",
		"│  ├─ hop: node 3",
		"│  └─ hop: node 7",
		"└─ probe 2/2",
		"   └─ detour: node 5 suspect",
		"",
	}, "\n")
	if got != want {
		t.Errorf("tree mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTreeWithTimings(t *testing.T) {
	root := New("op")
	root.End()
	if root.Duration() <= 0 {
		t.Fatal("End did not stamp a duration")
	}
	if !strings.Contains(root.Tree(true), "(") {
		t.Errorf("timed tree missing duration: %q", root.Tree(true))
	}
	if strings.Contains(root.Tree(false), "(") {
		t.Errorf("timings-off tree shows duration: %q", root.Tree(false))
	}
}

func TestEndIdempotent(t *testing.T) {
	s := New("op")
	s.End()
	d := s.Duration()
	time.Sleep(time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Error("second End overwrote the duration")
	}
}

func TestNilSpanSafe(t *testing.T) {
	var s *Span
	if s.On() {
		t.Error("nil span reports On")
	}
	c := s.Child("x")
	if c != nil {
		t.Error("nil span returned non-nil child")
	}
	c.Event("k", "d")
	c.Eventf("k", "%d", 1)
	c.End()
	if got := s.Tree(true); got != "" {
		t.Errorf("nil tree = %q, want empty", got)
	}
	if s.Duration() != 0 || s.Name() != "" {
		t.Error("nil span accessors not zero")
	}
}

func TestConcurrentAppend(t *testing.T) {
	root := New("root")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				c := root.Child("c")
				c.Event("e", "d")
				c.End()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if n := strings.Count(root.Tree(false), "\n"); n != 1+4*100*2 {
		t.Errorf("tree has %d lines, want %d", n, 1+4*100*2)
	}
}

// TestDisabledSpanAllocs pins the tentpole contract: threading a nil span
// through a hot path performs zero allocations.
func TestDisabledSpanAllocs(t *testing.T) {
	var s *Span
	allocs := testing.AllocsPerRun(1000, func() {
		if s.On() {
			s.Event("hop", "never formatted")
		}
		c := s.Child("probe")
		c.Event("hop", "node")
		c.End()
		_ = s.Duration()
	})
	if allocs != 0 {
		t.Errorf("disabled span allocates %v allocs/op, want 0", allocs)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var s *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := s.Child("probe")
		c.Event("hop", "node")
		c.End()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	b.ReportAllocs()
	root := New("bench")
	for i := 0; i < b.N; i++ {
		c := root.Child("probe")
		c.Event("hop", "node")
		c.End()
		// Keep the tree bounded so the benchmark measures append cost,
		// not the span item cap.
		if i%1024 == 1023 {
			root = New("bench")
		}
	}
}
