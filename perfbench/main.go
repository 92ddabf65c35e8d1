// Command perfbench is the repository's end-to-end benchmark. Each round
// boots a live TCP ring in-process through the public p2prange.StartPeer
// API, on fixed loopback addresses derived from the seed, with the
// settings peerd ships by default; two closed-loop clients then replay
// fixed seeded operation sequences, and every answer is checked against a
// reference the benchmark computes itself.
//
//	python3 perfbench/run.py --workload lookup_route --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced rounds. --trace 1
// also runs a traced round (same inputs, fresh ring) after each untraced
// one and reports per-layer metrics: deltas of the program's counters over
// the untraced rounds, span self times folded from the traced rounds, and
// the benchmark's own timing of signing. The last line of standard output
// is one JSON object; the lines before it are a readable report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	rounds   int     // fresh rings per invocation
	scale    float64 // fraction of the full operation count
	scratch  string
	commit   string
}

// roundsPerRun is how many fresh rings an invocation boots: enough for a
// median set-up time, few enough that set-up stays a minority of the run.
const roundsPerRun = 3

// runDeadline bounds a whole invocation; a stuck ring fails the run
// instead of hanging it.
const runDeadline = 160 * time.Second

func main() {
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result within %s; goroutines:\n", runDeadline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // best effort on the way out
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{rounds: roundsPerRun, scale: 1}
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name: lookup_route, durable_mix or sql_cache")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of every input: addresses, operation sequences, data")
	fs.IntVar(&opt.seconds, "seconds", 10, "sizes the fixed operation sequences (about this many seconds of measured work)")
	fs.IntVar(&trace, "trace", 0, "1 adds traced rounds and reports per-layer metrics")
	fs.StringVar(&opt.scratch, "scratch", "", "directory for peer data directories (default: the system temp dir)")
	fs.StringVar(&opt.commit, "commit", "unknown", "source revision recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	if opt.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := bench(opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errCanary reports that counts which must repeat exactly across the
// rounds of one seed did not: the layout or convergence drifted.
var errCanary = errors.New("determinism canary")

func bench(opt options, out io.Writer) (*result, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	if opt.scratch == "" {
		opt.scratch = os.TempDir()
	}
	scratch, err := os.MkdirTemp(opt.scratch, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	in := &inputs{
		seed:       opt.seed,
		schemeSeed: int64(mix(uint64(opt.seed))>>1) | 1,
		addrs:      ringAddrs(opt.seed, w.peers),
	}
	perClient := max(10, int(w.rate*float64(opt.seconds)*opt.scale/float64(opt.rounds*clients)))
	if err := w.prepare(in, perClient); err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}
	meta := map[string]any{
		"workload": w.name, "seed": opt.seed, "trace": opt.trace,
		"rounds": opt.rounds, "ops_per_round": in.ops(), "clients": clients,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "commit": opt.commit, "peers": in.addrs,
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Fprintf(out, "meta %s\n", metaLine)

	var plain, traced []*roundResult
	for i := 0; i < opt.rounds; i++ {
		r, err := runRound(w, in, scratch, false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		report(out, "round", i+1, r)
		plain = append(plain, r)
		if opt.trace {
			t, err := runRound(w, in, scratch, true)
			if err != nil {
				return nil, fmt.Errorf("traced round %d: %w", i+1, err)
			}
			report(out, "traced", i+1, t)
			traced = append(traced, t)
		}
	}
	if w == lookupRoute {
		if err := canary(append(append([]*roundResult(nil), plain...), traced...)); err != nil {
			return nil, err
		}
	}

	res := tally(append(append([]*roundResult(nil), plain...), traced...))
	gated := endToEnd(plain)
	fmt.Fprintf(out, "end-to-end, medians over %d untraced rounds of %d ops:\n", len(plain), in.ops())
	printTable(out, gated)
	// Printed, not in the JSON, whose metrics must be non-zero on every
	// workload: error_frac is 0 at a correct commit (the JSON carries
	// failures as "failed"), and writes exist on one workload (per-layer
	// peer.publish_p50/p90_ms).
	only := []named{{"error_frac", "fraction", float64(res.Failed) / float64(res.Attempted)}}
	if p50 := overWindows(plain, latency(writes, 0.5)); p50 > 0 {
		only = append(only, named{"write_p50_ms", "ms", p50}, named{"write_p90_ms", "ms", overWindows(plain, latency(writes, 0.9))})
	}
	printTable(out, only)
	reported := gated
	if opt.trace {
		reported = perLayer(plain, traced, in)
		fmt.Fprintf(out, "per-layer: counters from untraced rounds, times from %d traced rounds:\n", len(traced))
		printTable(out, reported)
	}
	for _, m := range reported {
		res.Metrics[m.name] = metric{m.value, m.unit}
	}
	return res, nil
}

// tally counts the operations of every round and the failures among
// them: operations that returned an error, answers that differ from the
// reference, and transport errors while measuring. The result is correct
// only if there are none of any.
func tally(rounds []*roundResult) *result {
	res := &result{Metrics: make(map[string]metric)}
	for _, r := range rounds {
		res.Attempted += r.completed() + r.failed
		res.Failed += r.failed + r.mismatches + int(r.delta.counter("transport.errors"))
	}
	res.Correct = res.Failed == 0
	return res
}

func report(out io.Writer, kind string, i int, r *roundResult) {
	fmt.Fprintf(out, "%s %d: setup %.3fs, %d ops in %.3fs (%d failed, %d mismatched), %d rpcs (%d errors), %.3fs cpu\n",
		kind, i, r.setup.Seconds(), r.completed()+r.failed, r.wall.Seconds(), r.failed, r.mismatches,
		r.delta.reg.Counters["transport.calls"], r.delta.reg.Counters["transport.errors"], r.delta.cpu.Seconds())
}

// canary fails the invocation unless the lookup path's counts repeat
// exactly in every round: same hops, probes, batches and recall.
func canary(rounds []*roundResult) error {
	key := func(r *roundResult) string {
		sum, n := r.recall()
		return fmt.Sprintf("hops=%d probes=%.0f batches=%.0f recall=%v/%d",
			r.delta.reg.Histograms["chord.hops"].Sum, r.delta.counter("peer.probes"), r.delta.counter("peer.batches"), sum, n)
	}
	want := key(rounds[0])
	for i, r := range rounds[1:] {
		if got := key(r); got != want {
			return fmt.Errorf("%w: round 1 counted %s, round %d counted %s", errCanary, want, i+2, got)
		}
	}
	return nil
}

// named is one metric of the report.
type named struct {
	name  string
	unit  string
	value float64
}

func printTable(out io.Writer, ms []named) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// median of the per-round values of f.
func median(rounds []*roundResult, f func(r *roundResult) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	return medianOf(vs)
}

// minWindowSamples is the fewest latencies a window needs for its
// percentiles to count.
const minWindowSamples = 10

// overWindows is the median of f over every window of the rounds,
// skipping windows where f reports no value.
func overWindows(rounds []*roundResult, f func(w window) (float64, bool)) float64 {
	var vs []float64
	for _, r := range rounds {
		for _, w := range r.windows {
			if v, ok := f(w); ok {
				vs = append(vs, v)
			}
		}
	}
	return medianOf(vs)
}

func throughput(w window) (float64, bool) { return float64(w.ops) / w.secs, w.secs > 0 }

func latency(pick func(w window) []time.Duration, p float64) func(w window) (float64, bool) {
	return func(w window) (float64, bool) {
		ls := pick(w)
		return percentile(ls, p), len(ls) >= minWindowSamples
	}
}

func reads(w window) []time.Duration  { return w.reads }
func writes(w window) []time.Duration { return w.writes }

// endToEnd computes the user-visible metrics: set-up time, throughput,
// read latency and CPU per operation, network cost and answer quality per
// operation, and memory. Time figures are medians over the windows of
// every round, the rest medians over the rounds.
func endToEnd(rounds []*roundResult) []named {
	return []named{
		{"setup_s", "s", median(rounds, func(r *roundResult) float64 { return r.setup.Seconds() })},
		{"ops_s", "ops/s", overWindows(rounds, throughput)},
		{"read_p50_ms", "ms", overWindows(rounds, latency(reads, 0.5))},
		{"read_p90_ms", "ms", overWindows(rounds, latency(reads, 0.9))},
		{"cpu_ms_per_kop", "ms", overWindows(rounds, func(w window) (float64, bool) {
			return 1e6 * w.cpu.Seconds() / float64(w.ops), w.ops > 0
		})},
		{"msgs_per_op", "rpc/op", median(rounds, func(r *roundResult) float64 {
			return r.delta.counter("transport.calls") / float64(max(1, r.completed()))
		})},
		{"recall_mean", "fraction", median(rounds, func(r *roundResult) float64 {
			sum, n := r.recall()
			return sum / float64(max(1, n))
		})},
		{"heap_mb", "MiB", median(rounds, func(r *roundResult) float64 { return float64(r.heapBytes) / (1 << 20) })},
	}
}

// perLayer assembles the per-layer table: counter deltas per operation
// (median over untraced rounds), folded span times per operation (summed over traced rounds),
// and the benchmark's own timing of signing.
func perLayer(plain, traced []*roundResult, in *inputs) []named {
	count := func(name string) func(r *roundResult) float64 {
		return func(r *roundResult) float64 { return r.delta.counter(name) }
	}
	perOp := func(scale float64, f func(r *roundResult) float64) float64 {
		return median(plain, func(r *roundResult) float64 { return scale * f(r) / float64(max(1, r.completed())) })
	}
	frac := func(num, den func(r *roundResult) float64) float64 {
		return median(plain, func(r *roundResult) float64 {
			if d := den(r); d > 0 {
				return num(r) / d
			}
			return 0
		})
	}
	sum := func(names ...string) func(r *roundResult) float64 {
		return func(r *roundResult) float64 {
			t := 0.0
			for _, n := range names {
				t += r.delta.counter(n)
			}
			return t
		}
	}
	var f fold
	tracedOps := 0
	for _, r := range traced {
		f.merge(&r.fold)
		tracedOps += r.completed()
	}
	us := func(v int64) float64 { return float64(v) / float64(max(1, tracedOps)) }
	signRootsUS := float64(in.signRoots.Microseconds()) / float64(in.ops()) * float64(tracedOps)
	opsS := func(rs []*roundResult) float64 { return overWindows(rs, throughput) }
	hist := func(name string) func(r *roundResult) float64 {
		return func(r *roundResult) float64 { return float64(r.delta.reg.Histograms[name].Sum) }
	}
	return []named{
		{"minhash.sign_us_per_op", "us", float64(in.signTotal.Microseconds()) / float64(in.ops())},
		{"minhash.sig_reuse_frac", "fraction", frac(
			func(r *roundResult) float64 { return float64(r.delta.sig.Hits + r.delta.sig.Extends) },
			func(r *roundResult) float64 { return float64(r.delta.sig.Total()) })},
		{"chord.hops_per_op", "count", perOp(1, hist("chord.hops"))},
		{"chord.route_us_per_op", "us", us(f.route)},
		{"transport.rpcs_per_op", "count", perOp(1, count("transport.calls"))},
		{"transport.call_us_mean", "us", frac(hist("transport.call_us"), func(r *roundResult) float64 {
			return float64(r.delta.reg.Histograms["transport.call_us"].Count)
		})},
		{"transport.wait_us_per_op", "us", us(f.wire)},
		{"transport.errors_per_kop", "count", perOp(1000, count("transport.errors"))},
		{"peer.probes_per_op", "count", perOp(1, count("peer.probes"))},
		{"peer.batches_per_op", "count", perOp(1, count("peer.batches"))},
		{"peer.stores_per_op", "count", perOp(1, count("peer.stores"))},
		{"peer.fetches_per_op", "count", perOp(1, count("peer.fetches"))},
		{"peer.fallback_frac", "fraction", frac(count("peer.fallbacks"), count("query.scans"))},
		{"peer.serve_us_per_op", "us", us(f.serve)},
		{"peer.put_serve_us_per_op", "us", us(f.storeServe)},
		{"peer.publish_us_per_op", "us", us(f.publish)},
		{"peer.publish_p50_ms", "ms", overWindows(plain, latency(writes, 0.5))},
		{"peer.publish_p90_ms", "ms", overWindows(plain, latency(writes, 0.9))},
		{"peer.lookup_self_us_per_op", "us", us(f.lookupSelf)},
		{"store.scan_us_per_op", "us", us(f.scan)},
		{"store.seg_read_us_per_op", "us", us(f.segRead)},
		{"store.miss_disk_per_op", "count", perOp(1, count("store.miss_disk"))},
		{"store.disk_hit_frac", "fraction", frac(count("store.miss_disk_hits"), count("store.miss_disk"))},
		{"store.admits_per_op", "count", perOp(1, count("store.admits"))},
		{"wal.appends_per_op", "count", perOp(1, count("wal.appends"))},
		{"wal.commits_per_op", "count", perOp(1, count("wal.commits"))},
		{"wal.flush_bytes_per_op", "bytes", perOp(1, count("wal.flush_bytes"))},
		{"wal.compactions_per_kop", "count", perOp(1000, count("wal.compactions"))},
		{"wal.folded_records_per_op", "count", perOp(1, count("wal.folded_records"))},
		{"wal.seg_reads_per_op", "count", perOp(1, count("wal.seg_reads"))},
		{"wal.seg_read_bytes_per_op", "bytes", perOp(1, count("wal.seg_read_bytes"))},
		{"wal.bloom_skip_frac", "fraction", frac(count("wal.seg_bloom_skips"), sum("wal.seg_bloom_skips", "wal.seg_reads"))},
		{"replica.pushed_per_op", "count", perOp(1, count("replica.pushed"))},
		{"replica.load_probes_per_op", "count", perOp(1, count("replica.load_probes"))},
		{"replica.diverted_frac", "fraction", frac(count("replica.diverted"), count("replica.selections"))},
		{"ship.push_records_per_op", "count", perOp(1, count("ship.push_records"))},
		{"ship.push_bytes_per_op", "bytes", perOp(1, count("ship.push_bytes"))},
		{"query.exec_us_per_op", "us", us(f.queryExec)},
		{"query.scan_us_per_op", "us", us(f.queryScan)},
		{"query.scans_per_op", "count", perOp(1, count("query.scans"))},
		{"query.coalesced_per_op", "count", perOp(1, count("query.coalesced"))},
		{"flight.finished_per_op", "count", perOp(1, func(r *roundResult) float64 { return float64(r.delta.flight) })},
		{"runtime.alloc_bytes_per_op", "bytes", perOp(1, func(r *roundResult) float64 { return float64(r.delta.alloc) })},
		{"runtime.mallocs_per_op", "count", perOp(1, func(r *roundResult) float64 { return float64(r.delta.malloc) })},
		{"runtime.gc_per_kop", "count", perOp(1000, func(r *roundResult) float64 { return float64(r.delta.gc) })},
		{"runtime.gc_pause_us_per_kop", "us", perOp(1000, func(r *roundResult) float64 { return float64(r.delta.pause.Microseconds()) })},
		{"trace.residual_frac", "fraction", f.residual(signRootsUS)},
		{"trace.overhead_frac", "fraction", 1 - opsS(traced)/opsS(plain)},
	}
}
