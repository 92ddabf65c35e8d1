package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"p2prange"
	"p2prange/internal/metrics"
	"p2prange/internal/rangeset"
)

// clients is the number of closed-loop clients: querying peers that each
// wait for their answer before sending the next operation.
const clients = 2

type opKind uint8

const (
	opLookup opKind = iota
	opPublish
	opQuery
)

// op is one operation of a client's fixed sequence.
type op struct {
	kind   opKind
	origin int            // index of the peer the client asks
	rg     rangeset.Range // lookup or publish range; the query's age range
	query  int            // catalog index of a SQL query
}

// outcome is what one operation returned.
type outcome struct {
	latency time.Duration
	end     time.Duration // completion, since the measured phase began
	failed  bool
	found   bool
	score   float64
	recall  float64
	digest  uint64 // SQL rows
}

// snapshot is the program's cumulative counters at one instant.
type snapshot struct {
	reg    metrics.Snapshot
	sig    metrics.SigSnapshot
	flight uint64
	cpu    time.Duration
	mem    runtime.MemStats
}

func takeSnapshot(peers []*p2prange.LivePeer) snapshot {
	s := snapshot{reg: metrics.Default.Snapshot()}
	for _, p := range peers {
		sg := p.SigStats()
		s.sig.Hits += sg.Hits
		s.sig.Misses += sg.Misses
		s.sig.Extends += sg.Extends
		s.flight += p.Flight().Stats().Finished
	}
	s.cpu = processCPU()
	runtime.ReadMemStats(&s.mem)
	return s
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta is the difference of two snapshots: the work one round did.
type delta struct {
	reg    metrics.Snapshot
	sig    metrics.SigSnapshot
	flight uint64
	cpu    time.Duration
	alloc  uint64
	malloc uint64
	gc     uint32
	pause  time.Duration
}

func diff(after, before snapshot) delta {
	return delta{
		reg:    after.reg.Sub(before.reg),
		sig:    after.sig.Sub(before.sig),
		flight: after.flight - before.flight,
		cpu:    after.cpu - before.cpu,
		alloc:  after.mem.TotalAlloc - before.mem.TotalAlloc,
		malloc: after.mem.Mallocs - before.mem.Mallocs,
		gc:     after.mem.NumGC - before.mem.NumGC,
		pause:  time.Duration(after.mem.PauseTotalNs - before.mem.PauseTotalNs),
	}
}

func (d delta) counter(name string) float64 { return float64(d.reg.Counters[name]) }

// roundResult is one round: a fresh ring, its set-up, and one pass of
// every client's fixed sequence.
type roundResult struct {
	setup      time.Duration
	wall       time.Duration
	ops        [][]op
	outcomes   [][]outcome
	failed     int
	mismatches int
	delta      delta
	heapBytes  uint64
	fold       fold
	windows    []window
}

// windowLen slices a round's measured phase into windows. Time metrics
// are medians over windows, so a slowdown of the shared host that lasts a
// second moves a few windows, not the reported figure.
const windowLen = 500 * time.Millisecond

// window is one slice of a measured phase: the operations that completed
// in it, the process CPU it used, and the latencies of its reads and
// writes.
type window struct {
	ops           int
	secs          float64
	cpu           time.Duration
	reads, writes []time.Duration
}

// sample is the progress of a measured phase at one instant.
type sample struct {
	at   time.Duration
	done int64
	cpu  time.Duration
}

// cut slices the measured phase into windows at the samples. The tail
// after the last sample is dropped unless it is the only window.
func (r *roundResult) cut(samples []sample) {
	if len(samples) == 0 {
		samples = []sample{{at: r.wall, done: int64(r.completed()), cpu: r.delta.cpu}}
	}
	prev := sample{}
	for _, s := range samples {
		w := window{ops: int(s.done - prev.done), secs: (s.at - prev.at).Seconds(), cpu: s.cpu - prev.cpu}
		for c, outs := range r.outcomes {
			for i, o := range outs {
				if o.failed || o.end <= prev.at || o.end > s.at {
					continue
				}
				if r.ops[c][i].kind == opPublish {
					w.writes = append(w.writes, o.latency)
				} else {
					w.reads = append(w.reads, o.latency)
				}
			}
		}
		sort.Slice(w.reads, func(i, j int) bool { return w.reads[i] < w.reads[j] })
		sort.Slice(w.writes, func(i, j int) bool { return w.writes[i] < w.writes[j] })
		r.windows = append(r.windows, w)
		prev = s
	}
}

// completed counts operations that returned without error.
func (r *roundResult) completed() int {
	n := 0
	for _, outs := range r.outcomes {
		n += len(outs)
	}
	return n - r.failed
}

// recall sums the recall of lookups in operation order (so the float sum
// is the same whatever the clients' interleaving) and counts them.
func (r *roundResult) recall() (float64, int) {
	sum, n := 0.0, 0
	for c, outs := range r.outcomes {
		for i, o := range outs {
			if k := r.ops[c][i].kind; k == opLookup || k == opQuery {
				sum += o.recall
				n++
			}
		}
	}
	return sum, n
}

// runRound boots a fresh ring for w, seeds and warms it, runs the fixed
// sequences once (traced or not), checks the outputs, and tears the ring
// down again. Set-up time runs from the first boot until the warm-up batch
// has returned.
func runRound(w *scenario, in *inputs, scratch string, traced bool) (*roundResult, error) {
	dir, err := os.MkdirTemp(scratch, "round-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	peers, err := startRing(in.addrs, func(i int) p2prange.LiveConfig {
		return w.config(in, filepath.Join(dir, fmt.Sprintf("peer-%02d", i)))
	}, 60*time.Second)
	if err != nil {
		return nil, err
	}
	defer closeRing(peers)
	if err := w.seed(peers, in); err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	if err := warmUp(peers, in); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r := &roundResult{setup: time.Since(start), ops: in.clients}

	before := takeSnapshot(peers)
	r.outcomes = make([][]outcome, len(in.clients))
	folds := make([]fold, len(in.clients))
	var (
		wg      sync.WaitGroup
		done    atomic.Int64
		samples []sample
	)
	stop, sampled := make(chan struct{}), make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(sampled)
		tick := time.NewTicker(windowLen)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				samples = append(samples, sample{at: time.Since(t0), done: done.Load(), cpu: processCPU() - before.cpu})
			}
		}
	}()
	for c := range in.clients {
		r.outcomes[c] = make([]outcome, len(in.clients[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, o := range in.clients[c] {
				out := &r.outcomes[c][i]
				w.exec(peers[o.origin], in, o, traced, out, &folds[c])
				out.end = time.Since(t0)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(t0)
	close(stop)
	<-sampled
	r.delta = diff(takeSnapshot(peers), before)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapBytes = ms.HeapAlloc
	for c := range folds {
		r.fold.merge(&folds[c])
		for _, o := range r.outcomes[c] {
			if o.failed {
				r.failed++
			}
		}
	}
	r.cut(samples)
	if r.mismatches, err = w.check(peers, in, r); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return r, nil
}

// warmUp dials every peer pair's connection and fills lazy state with
// read-only lookups that leave the store unchanged.
func warmUp(peers []*p2prange.LivePeer, in *inputs) error {
	for i, rg := range in.warm {
		if _, _, err := peers[i%len(peers)].LookupOnce(relName, attrName, rg, false); err != nil {
			return err
		}
	}
	return nil
}

// percentile reads the p-quantile of sorted durations, in milliseconds.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}
