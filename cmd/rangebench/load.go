// Open-loop load harness: rangebench -load stands up a live TCP ring
// in-process, publishes a descriptor population, and drives lookups at a
// target arrival rate regardless of completions (open loop, so queueing
// delay shows up as latency instead of silently throttling the
// generator). The ramp runs the ring through rising qps stages and the
// report records sustained qps, latency percentiles, and the error
// budget per stage.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2prange"
	"p2prange/internal/chord"
	"p2prange/internal/rangeset"
)

// loadOptions carries the -load* flag values.
type loadOptions struct {
	qps      int
	duration time.Duration
	peers    int
	out      string
	seed     int64
	profile  string
	slo      time.Duration // p99 budget a stage must meet to count as sustained
	flight   bool          // run the flight-recorder overhead A/B instead of the ramp
}

// sloErrorBudget is the error-rate ceiling for a stage to pass the SLO.
const sloErrorBudget = 0.005

// loadStage is one measured ramp stage.
type loadStage struct {
	TargetQPS    float64 `json:"target_qps"`
	Issued       int64   `json:"issued"`
	Completed    int64   `json:"completed"`
	Errors       int64   `json:"errors"`
	ErrorRate    float64 `json:"error_rate"`
	SustainedQPS float64 `json:"sustained_qps"`
	P50US        int64   `json:"p50_us"`
	P95US        int64   `json:"p95_us"`
	P99US        int64   `json:"p99_us"`
	PassedSLO    bool    `json:"passed_slo"`
}

// loadRampReport is the full ramp. SustainedSLOQPS is the headline
// number: the highest completed rate among stages whose p99 stayed
// within the SLO and whose error rate stayed within budget — i.e. the
// load the ring sustains while still healthy, not the rate it degrades
// to after collapse (at deep overload any configuration converges to
// whatever the saturated CPU drains, so raw completion rate alone cannot
// tell two apart).
type loadRampReport struct {
	Stages          []loadStage `json:"stages"`
	SustainedSLOQPS float64     `json:"sustained_slo_qps"`
}

// loadReport is the BENCH_load.json document.
type loadReport struct {
	Peers           int            `json:"peers"`
	TargetQPS       int            `json:"target_qps"`
	StageDuration   string         `json:"stage_duration"`
	Partitions      int            `json:"partitions"`
	SLOP99          string         `json:"slo_p99"`
	SLOErrorBudget  float64        `json:"slo_error_budget"`
	Ramp            loadRampReport `json:"ramp"`
	GeneratedBy     string         `json:"generated_by"`
	DurationSeconds float64        `json:"duration_seconds"`
}

// rampFractions are the arrival-rate ramp: each stage targets this
// fraction of -load-qps for -load-duration. The grid is fine enough to
// bracket the SLO ceiling instead of stepping over it.
var rampFractions = []float64{0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0}

// warmupFraction and warmupDuration shape the discarded warm-up stage
// that absorbs one-time costs (dials, hellos, goroutine stack growth) before the first measured stage.
const (
	warmupFraction = 0.0625
	warmupDuration = time.Second
)

// loadPartitions is how many Patient.age partitions seed the ring.
const loadPartitions = 45

// runLoad executes the whole harness and writes the JSON report.
func runLoad(opt loadOptions) error {
	if opt.flight {
		return runLoadFlight(opt)
	}
	if opt.profile != "" {
		pf, err := os.Create(opt.profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	start := time.Now()
	report := loadReport{
		Peers:          opt.peers,
		TargetQPS:      opt.qps,
		StageDuration:  opt.duration.String(),
		Partitions:     loadPartitions,
		SLOP99:         opt.slo.String(),
		SLOErrorBudget: sloErrorBudget,
		GeneratedBy:    "rangebench -load",
	}
	fmt.Printf("load: ring (%d peers) ...\n", opt.peers)
	ramp, err := runLoadRamp(opt)
	if err != nil {
		return err
	}
	report.Ramp = ramp
	for _, st := range ramp.Stages {
		verdict := "FAIL slo"
		if st.PassedSLO {
			verdict = "ok"
		}
		fmt.Printf("load: target %6.0f qps -> sustained %7.1f qps  p50=%s p95=%s p99=%s  errs=%d/%d  [%s]\n",
			st.TargetQPS, st.SustainedQPS,
			time.Duration(st.P50US)*time.Microsecond,
			time.Duration(st.P95US)*time.Microsecond,
			time.Duration(st.P99US)*time.Microsecond,
			st.Errors, st.Issued, verdict)
	}
	fmt.Printf("load: sustains %.1f qps within p99<=%s\n", ramp.SustainedSLOQPS, opt.slo)
	report.DurationSeconds = time.Since(start).Seconds()
	if err := mergeReport(opt.out, report); err != nil {
		return err
	}
	fmt.Printf("load: report written to %s\n", opt.out)
	return nil
}

// mergeReport folds doc's top-level keys into the JSON file at path,
// preserving the keys it does not write (the segment_reads and
// flight_overhead blocks).
func mergeReport(path string, doc any) error {
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	add := make(map[string]json.RawMessage)
	if err := json.Unmarshal(raw, &add); err != nil {
		return err
	}
	merged := make(map[string]json.RawMessage)
	if prev, err := os.ReadFile(path); err == nil {
		// A corrupt or foreign file is not worth failing the run over;
		// it is simply replaced.
		_ = json.Unmarshal(prev, &merged)
	}
	for k, v := range add {
		merged[k] = v
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(merged); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLoadRamp builds a fresh ring, seeds it, and runs the qps ramp
// against it. A warm-up burst is run and discarded
// first, and the heap is collected between stages so one stage's
// garbage (deep overload leaves a lot) is not billed to the next.
func runLoadRamp(opt loadOptions) (loadRampReport, error) {
	var cr loadRampReport
	// The ramp measures the shipped default, recorder included.
	peers, err := startLoadRing(opt.peers, false)
	if err != nil {
		return cr, err
	}
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()
	if err := seedLoadRing(peers); err != nil {
		return cr, err
	}
	rng := rand.New(rand.NewSource(opt.seed))
	warm := warmupDuration
	if opt.duration < warm {
		warm = opt.duration
	}
	runLoadStage(peers, float64(opt.qps)*warmupFraction, warm, rng.Int63())
	failedInARow := 0
	for _, frac := range rampFractions {
		runtime.GC()
		qps := float64(opt.qps) * frac
		st := runLoadStage(peers, qps, opt.duration, rng.Int63())
		st.PassedSLO = st.ErrorRate <= sloErrorBudget &&
			time.Duration(st.P99US)*time.Microsecond <= opt.slo
		if st.PassedSLO && st.SustainedQPS > cr.SustainedSLOQPS {
			cr.SustainedSLOQPS = st.SustainedQPS
		}
		cr.Stages = append(cr.Stages, st)
		if st.PassedSLO {
			failedInARow = 0
		} else if failedInARow++; failedInARow >= 2 {
			// Two consecutive stages over budget: the ceiling is behind
			// us, and deeper overload only manufactures queueing garbage
			// that contaminates whatever runs next.
			break
		}
	}
	return cr, nil
}

// flightOverheadReport is the flight_overhead block of BENCH_load.json:
// the same workload driven through two identical rings, recorder off vs
// recorder on (the shipped default), and the sustained-qps cost of
// always-on recording.
type flightOverheadReport struct {
	FlightOverhead struct {
		TargetQPS    float64 `json:"target_qps"`
		Duration     string  `json:"stage_duration"`
		OffSustained float64 `json:"off_sustained_qps"`
		OnSustained  float64 `json:"on_sustained_qps"`
		OffP99US     int64   `json:"off_p99_us"`
		OnP99US      int64   `json:"on_p99_us"`
		OverheadPct  float64 `json:"overhead_pct"`
		// Finished and KeptSlow prove the recorder was actually live
		// during the "on" run — an overhead number for a recorder that
		// recorded nothing would be meaningless.
		Finished    uint64 `json:"finished"`
		KeptSlow    uint64 `json:"kept_slow"`
		GeneratedBy string `json:"generated_by"`
	} `json:"flight_overhead"`
}

// runLoadFlight measures the flight recorder's cost: two rings differing
// only in LiveConfig.FlightOff run the same open-loop stage, and the
// sustained-qps delta is the recorder's overhead. Recorded into the
// report file without disturbing the ramp keys.
func runLoadFlight(opt loadOptions) error {
	qps := float64(opt.qps) * 0.5 // mid-ramp: loaded but not collapsing
	var sustained [2]float64
	var p99 [2]int64
	var finished, keptSlow uint64
	for variant, off := range []bool{true, false} {
		name := map[bool]string{true: "flight-off", false: "flight-on"}[off]
		fmt.Printf("load: %s ring (%d peers) ...\n", name, opt.peers)
		peers, err := startLoadRing(opt.peers, off)
		if err != nil {
			return fmt.Errorf("%s ring: %w", name, err)
		}
		if err := seedLoadRing(peers); err != nil {
			for _, p := range peers {
				p.Close()
			}
			return err
		}
		rng := rand.New(rand.NewSource(opt.seed))
		warm := warmupDuration
		if opt.duration < warm {
			warm = opt.duration
		}
		runLoadStage(peers, qps*warmupFraction*4, warm, rng.Int63())
		runtime.GC()
		st := runLoadStage(peers, qps, opt.duration, rng.Int63())
		sustained[variant] = st.SustainedQPS
		p99[variant] = st.P99US
		if !off {
			for _, p := range peers {
				fs := p.Flight().Stats()
				finished += fs.Finished
				keptSlow += fs.KeptSlow
			}
		}
		for _, p := range peers {
			p.Close()
		}
		fmt.Printf("load: %-10s sustained %7.1f qps  p99=%s  errs=%d/%d\n",
			name, st.SustainedQPS, time.Duration(st.P99US)*time.Microsecond, st.Errors, st.Issued)
		runtime.GC()
		time.Sleep(300 * time.Millisecond)
	}

	var doc flightOverheadReport
	fo := &doc.FlightOverhead
	fo.TargetQPS = qps
	fo.Duration = opt.duration.String()
	fo.OffSustained = sustained[0]
	fo.OnSustained = sustained[1]
	fo.OffP99US = p99[0]
	fo.OnP99US = p99[1]
	if sustained[0] > 0 {
		fo.OverheadPct = 100 * (sustained[0] - sustained[1]) / sustained[0]
	}
	fo.Finished = finished
	fo.KeptSlow = keptSlow
	fo.GeneratedBy = "rangebench -load -load-flight"
	if err := mergeReport(opt.out, doc); err != nil {
		return err
	}
	fmt.Printf("load: flight recorder overhead %.2f%% of sustained qps (%d queries recorded, %d kept slow); written to %s\n",
		fo.OverheadPct, finished, keptSlow, opt.out)
	return nil
}

// startLoadRing launches n live TCP peers on loopback and waits for the
// ring to stabilize.
func startLoadRing(n int, flightOff bool) ([]*p2prange.LivePeer, error) {
	cfg := p2prange.LiveConfig{
		K: 4, L: 3, SchemeSeed: 77,
		Measure:   p2prange.MatchContainment,
		FlightOff: flightOff,
		Stabilize: chord.MaintainerConfig{
			StabilizeEvery:        20 * time.Millisecond,
			FixFingersEvery:       5 * time.Millisecond,
			CheckPredecessorEvery: 50 * time.Millisecond,
		},
	}
	peers := make([]*p2prange.LivePeer, 0, n)
	fail := func(err error) ([]*p2prange.LivePeer, error) {
		for _, p := range peers {
			p.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		bootstrap := ""
		if i > 0 {
			bootstrap = peers[0].Addr()
		}
		p, err := p2prange.StartPeer("127.0.0.1:0", bootstrap, cfg)
		if err != nil {
			return fail(err)
		}
		peers = append(peers, p)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, p := range peers {
		if !p.WaitStable(time.Until(deadline)) {
			return fail(fmt.Errorf("ring did not stabilize"))
		}
	}
	time.Sleep(300 * time.Millisecond) // let fingers settle
	return peers, nil
}

// seedLoadRing publishes the descriptor population every stage queries:
// overlapping Patient.age partitions spread across the peers.
func seedLoadRing(peers []*p2prange.LivePeer) error {
	for i := 0; i < loadPartitions; i++ {
		lo := int64(i * 2)
		desc := peers[i%len(peers)].Descriptor("Patient", "age", rangeset.Range{Lo: lo, Hi: lo + 9})
		if err := peers[i%len(peers)].Publish(desc); err != nil {
			return fmt.Errorf("publish partition %d: %w", i, err)
		}
	}
	return nil
}

// runLoadStage drives lookups at the target arrival rate for the stage
// duration and measures the outcome. Dispatch is open-loop: send times
// are scheduled arithmetically from the stage start, so a slow system
// accumulates in-flight requests (and latency) instead of slowing the
// generator down.
func runLoadStage(peers []*p2prange.LivePeer, qps float64, duration time.Duration, seed int64) loadStage {
	st := loadStage{TargetQPS: qps}
	interval := time.Duration(float64(time.Second) / qps)
	total := int(qps * duration.Seconds())
	rng := rand.New(rand.NewSource(seed))
	queries := make([]rangeset.Range, total)
	for i := range queries {
		lo := rng.Int63n(85)
		queries[i] = rangeset.Range{Lo: lo, Hi: lo + 5 + rng.Int63n(10)}
	}

	// Each request records its latency into its own slot, so the hot
	// path takes no lock; slots of failed requests stay zero and are
	// dropped before the percentile pass. Generator goroutines are
	// recycled via direct channel handoff — an idle worker takes the
	// next request, and a new goroutine is spawned only when all are
	// busy — so the generator pays goroutine startup (and its stack
	// growth) per concurrency high-water mark, not per request.
	var (
		latencies = make([]int64, total)
		errs      atomic.Int64
		wg        sync.WaitGroup
	)
	run := func(i int) {
		from := peers[i%len(peers)]
		t0 := time.Now()
		_, _, err := from.LookupOnce("Patient", "age", queries[i], false)
		us := time.Since(t0).Microseconds()
		if err != nil {
			errs.Add(1)
			return
		}
		if us <= 0 {
			us = 1
		}
		latencies[i] = us
	}
	tasks := make(chan int)
	start := time.Now()
	for i := 0; i < total; i++ {
		if wait := start.Add(time.Duration(i) * interval).Sub(time.Now()); wait > 0 {
			time.Sleep(wait)
		}
		st.Issued++
		select {
		case tasks <- i: // an idle worker takes it
		default:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i)
				for j := range tasks { // stick around as a pooled worker
					run(j)
				}
			}(i)
		}
	}
	close(tasks)
	wg.Wait()
	elapsed := time.Since(start)

	st.Errors = errs.Load()
	st.Completed = st.Issued - st.Errors
	if st.Issued > 0 {
		st.ErrorRate = float64(st.Errors) / float64(st.Issued)
	}
	if elapsed > 0 {
		st.SustainedQPS = float64(st.Completed) / elapsed.Seconds()
	}
	ok := latencies[:0]
	for _, us := range latencies {
		if us > 0 {
			ok = append(ok, us)
		}
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
	st.P50US = percentile(ok, 0.50)
	st.P95US = percentile(ok, 0.95)
	st.P99US = percentile(ok, 0.99)
	return st
}

// percentile reads the p-quantile from sorted microsecond latencies.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
