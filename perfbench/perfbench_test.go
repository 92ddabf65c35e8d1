package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"p2prange/internal/metrics"
	"p2prange/internal/rangeset"
	"p2prange/internal/trace"
)

// TestSmoke runs every workload at reduced scale with tracing, so the
// reference checks, the determinism canary and the span fold all run
// against live rings.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live rings")
	}
	// Layers each workload must show doing work in its per-layer table.
	busy := map[string][]string{
		"lookup_route": {"chord.route_us_per_op", "transport.wait_us_per_op", "store.scan_us_per_op", "peer.batches_per_op", "minhash.sign_us_per_op"},
		"durable_mix":  {"wal.commits_per_op", "wal.appends_per_op", "replica.pushed_per_op", "replica.load_probes_per_op", "peer.put_serve_us_per_op"},
		"sql_cache":    {"query.exec_us_per_op", "query.scan_us_per_op", "peer.fetches_per_op", "minhash.sig_reuse_frac"},
	}
	for _, w := range scenarios {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := bench(options{workload: w.name, seed: 7, seconds: 1, trace: true, rounds: 2, scale: 0.2, scratch: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			for _, name := range busy[w.name] {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			if r := res.Metrics["trace.residual_frac"].Value; r < -0.5 || r > 0.5 {
				t.Errorf("trace.residual_frac = %v: the fold misses a layer", r)
			}
		})
	}
}

// TestPublishRangesAreOwnDescriptors checks that on durable_mix no seed,
// warm-up or lookup range equals a measured publish's range, and that no
// two publishes share one, so the post-round sweep finds only the
// acknowledged publish itself.
func TestPublishRangesAreOwnDescriptors(t *testing.T) {
	in := &inputs{seed: 5}
	if err := durableMix.prepare(in, 1500); err != nil {
		t.Fatal(err)
	}
	others := make(map[rangeset.Range]bool)
	for _, rg := range append(append([]rangeset.Range(nil), in.seeds...), in.warm...) {
		others[rg] = true
	}
	var pubs []rangeset.Range
	for _, seq := range in.clients {
		for _, o := range seq {
			if o.kind == opPublish {
				pubs = append(pubs, o.rg)
			} else {
				others[o.rg] = true
			}
		}
	}
	seen := make(map[rangeset.Range]bool)
	for _, rg := range pubs {
		if others[rg] || seen[rg] {
			t.Fatalf("publish range %s is not its own: other=%v repeated=%v", rg, others[rg], seen[rg])
		}
		seen[rg] = true
	}
	if len(pubs) < 500 {
		t.Fatalf("only %d publishes in 3000 operations", len(pubs))
	}
}

func TestCanaryDetectsDrift(t *testing.T) {
	round := func(hops uint64) *roundResult {
		return &roundResult{delta: delta{reg: metrics.Snapshot{
			Counters:   map[string]uint64{"peer.probes": 10, "peer.batches": 6},
			Histograms: map[string]metrics.HistSnapshot{"chord.hops": {Sum: hops}},
		}}}
	}
	if err := canary([]*roundResult{round(20), round(20)}); err != nil {
		t.Fatalf("identical rounds: %v", err)
	}
	if err := canary([]*roundResult{round(20), round(21)}); !errors.Is(err, errCanary) {
		t.Fatalf("drifted rounds: got %v, want the canary error", err)
	}
}

// TestTallyCountsEveryFailure checks that a round is incorrect when
// operations fail or the transport errs, even if every answer that came
// back matched the reference.
func TestTallyCountsEveryFailure(t *testing.T) {
	round := func(failed int, transportErrors uint64) *roundResult {
		return &roundResult{
			outcomes: [][]outcome{make([]outcome, 3), make([]outcome, 2)},
			failed:   failed,
			delta:    delta{reg: metrics.Snapshot{Counters: map[string]uint64{"transport.errors": transportErrors}}},
		}
	}
	for _, c := range []struct {
		name    string
		r       *roundResult
		failed  int
		correct bool
	}{
		{"clean", round(0, 0), 0, true},
		{"failed ops, no mismatches", round(2, 0), 2, false},
		{"transport errors", round(0, 1), 1, false},
	} {
		res := tally([]*roundResult{c.r})
		if res.Attempted != 5 || res.Failed != c.failed || res.Correct != c.correct {
			t.Errorf("%s: attempted=%d failed=%d correct=%v, want 5, %d, %v", c.name, res.Attempted, res.Failed, res.Correct, c.failed, c.correct)
		}
	}
}

func TestFoldSelfTimes(t *testing.T) {
	span := func(name string, us int64, children ...trace.Wire) trace.Wire {
		w := trace.Wire{Name: name, DurUS: us}
		for i := range children {
			w.Items = append(w.Items, trace.WireItem{Child: &children[i]})
		}
		return w
	}
	var f fold
	f.add(span("lookup Patient.age [1,9] from a", 100,
		span("probe 1/1 id=00000001", 30),
		span("batch @b: 1 probe(s)", 50,
			span("serve FindBestBatch @b", 20, span("seg.read", 5)))))
	want := fold{rootUS: 100, lookupSelf: 20, route: 30, wire: 30, serve: 20, scan: 15, segRead: 5}
	if f != want {
		t.Fatalf("fold = %+v, want %+v", f, want)
	}
	if got := f.residual(10); got != 0.1 {
		t.Fatalf("residual = %v, want 0.1", got)
	}
}

func TestRingAddrsBalancedAndFixed(t *testing.T) {
	for _, n := range []int{8, 16} {
		a, b := ringAddrs(3, n), ringAddrs(3, n)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("seed 3 gave %v then %v", a, b)
		}
		if !balanced(a) {
			t.Fatalf("ring of %d is not balanced: %v", n, a)
		}
	}
}

// TestManifest keeps BENCHMARK.json and the program in step: the same
// workloads, and exactly the metrics each mode reports, with their units.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var m struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range scenarios {
		names = append(names, w.name)
	}
	var want []string
	for _, w := range m.Workloads {
		want = append(want, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, manifest %v", names, want)
	}
	r := &roundResult{setup: time.Second, windows: []window{{ops: 1, secs: 1}}}
	in := &inputs{clients: [][]op{{{}}}}
	for _, c := range []struct {
		mode     string
		got      []named
		manifest []entry
	}{{"end_to_end", endToEnd([]*roundResult{r}), m.EndToEnd}, {"per_layer", perLayer([]*roundResult{r}, []*roundResult{r}, in), m.PerLayer}} {
		if len(c.got) != len(c.manifest) {
			t.Errorf("%s: program reports %d metrics, manifest lists %d", c.mode, len(c.got), len(c.manifest))
			continue
		}
		for i, n := range c.got {
			if e := c.manifest[i]; n.name != e.Name || n.unit != e.Unit {
				t.Errorf("%s[%d]: program %s (%s), manifest %s (%s)", c.mode, i, n.name, n.unit, e.Name, e.Unit)
			}
		}
	}
}
