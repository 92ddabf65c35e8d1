package metrics

import (
	"strings"
	"testing"
)

// TestQuantile checks the power-of-two interpolation on known shapes.
func TestQuantile(t *testing.T) {
	var h IntHistogram
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %g, want 1 (lower bound of the first non-empty bucket)", got)
	}
	// The median of 1..100 is ~50; the containing bucket is [32,63], so
	// the estimate must land inside it.
	if got := s.Quantile(0.5); got < 32 || got > 63 {
		t.Errorf("q50 = %g, want within [32,63]", got)
	}
	if got := s.Quantile(0.99); got < 64 || got > 127 {
		t.Errorf("q99 = %g, want within [64,127]", got)
	}
	if got := s.Quantile(1); got < 64 || got > 127 {
		t.Errorf("q100 = %g, want within the last bucket [64,127]", got)
	}

	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}

	// All observations equal: every quantile is that value's bucket.
	var one IntHistogram
	for i := 0; i < 10; i++ {
		one.Observe(0)
	}
	if got := one.Snapshot().Quantile(0.95); got != 0 {
		t.Errorf("all-zero q95 = %g, want 0", got)
	}
}

// TestWritePrometheusGolden pins the exposition format byte for byte:
// metric naming, type lines, cumulative le buckets, +Inf, _sum/_count,
// and the quantile summary gauges. A metric rename or format drift shows
// up as a diff here before it breaks someone's dashboard.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("peer.lookups").Add(42)
	r.Counter("transport.calls").Add(7)
	r.Gauge("peer.partitions").Set(3)
	h := r.IntHistogram("chord.hops")
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(2)
	h.Observe(5)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE p2prange_peer_lookups_total counter
p2prange_peer_lookups_total 42
# TYPE p2prange_transport_calls_total counter
p2prange_transport_calls_total 7
# TYPE p2prange_peer_partitions gauge
p2prange_peer_partitions 3
# TYPE p2prange_chord_hops histogram
p2prange_chord_hops_bucket{le="0"} 1
p2prange_chord_hops_bucket{le="1"} 2
p2prange_chord_hops_bucket{le="3"} 4
p2prange_chord_hops_bucket{le="7"} 5
p2prange_chord_hops_bucket{le="+Inf"} 5
p2prange_chord_hops_sum 10
p2prange_chord_hops_count 5
# TYPE p2prange_chord_hops_p50 gauge
p2prange_chord_hops_p50 2.25
# TYPE p2prange_chord_hops_p95 gauge
p2prange_chord_hops_p95 6.25
# TYPE p2prange_chord_hops_p99 gauge
p2prange_chord_hops_p99 6.85
`
	if got := b.String(); got != want {
		t.Errorf("prometheus exposition changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramExemplar pins the exemplar contract: SetExemplar
// annotates without counting, the snapshot carries it on the matching
// bucket, and the exposition renders the OpenMetrics suffix on that
// bucket line only.
func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.IntHistogram("peer.lookup_us")
	h.Observe(3)     // bucket [2,3]
	h.Observe(40000) // bucket [32768,65535]
	h.SetExemplar(40000, 0x2a)

	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2 (SetExemplar must not count)", s.Count)
	}
	var found *Exemplar
	for _, b := range s.Buckets {
		if b.Lo == 32768 {
			found = b.Exemplar
		} else if b.Exemplar != nil {
			t.Errorf("bucket [%d,%d] has an unexpected exemplar", b.Lo, b.Hi)
		}
	}
	if found == nil || found.Value != 40000 || found.TraceID != "000000000000002a" {
		t.Fatalf("exemplar on [32768,65535] = %+v", found)
	}

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `p2prange_peer_lookup_us_bucket{le="65535"} 2 # {trace_id="000000000000002a"} 40000`
	if !strings.Contains(b.String(), want+"\n") {
		t.Errorf("exposition missing exemplar line %q:\n%s", want, b.String())
	}
	if strings.Contains(b.String(), `le="3"} 1 #`) {
		t.Errorf("exemplar leaked onto the wrong bucket:\n%s", b.String())
	}

	// Reset clears exemplars with the data.
	r.Reset()
	for _, bk := range h.Snapshot().Buckets {
		if bk.Exemplar != nil {
			t.Error("exemplar survived Reset")
		}
	}
}

// TestMergeQuantileAcrossSnapshots checks that quantiles over a merged
// histogram see all processes' observations (exercised by obs, pinned
// here where the bucket math lives).
func TestPrometheusValidFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Inc()
	r.IntHistogram("c.d").Observe(9)
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("bad comment line %q", line)
			}
			continue
		}
		if !strings.HasPrefix(line, "p2prange_") {
			t.Errorf("metric line %q lacks namespace", line)
		}
		if strings.Count(line, " ") != 1 {
			t.Errorf("metric line %q is not 'name value'", line)
		}
	}
}
