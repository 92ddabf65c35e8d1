// Command rangebench regenerates the paper's evaluation: every figure
// (5-12) plus the ablations DESIGN.md lists. Each experiment prints the
// rows/series the paper plots.
//
// Usage:
//
//	rangebench -fig 6a          # one experiment
//	rangebench -fig all         # everything (paper-scale, takes minutes)
//	rangebench -fig all -quick  # reduced parameters, seconds
//	rangebench -list            # available experiment ids
//
// With -metrics-out FILE, a JSON dump of the unified metrics registry is
// written after the run: per-experiment counter deltas (what each figure
// cost in lookups, hops, cache hits, transport calls) plus the final
// cumulative snapshot. See docs/OBSERVABILITY.md and EXPERIMENTS.md for a
// worked example.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"p2prange/internal/experiments"
	"p2prange/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is rangebench with its arguments and output passed in, so a test
// can drive the figures in process; it returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rangebench", flag.ContinueOnError)
	var (
		fig    = fs.String("fig", "", "experiment id (e.g. 5, 6a, 11b, kl) or 'all'")
		quick  = fs.Bool("quick", false, "use reduced parameters (fast smoke run)")
		list   = fs.Bool("list", false, "list available experiment ids")
		seed   = fs.Int64("seed", 42, "random seed")
		format = fs.String("format", "table", "output format: table | csv")
		outDir = fs.String("o", "", "write each experiment to <dir>/<id>.<ext> instead of stdout")

		load         = fs.Bool("load", false, "run the open-loop TCP load harness instead of a figure experiment")
		loadQPS      = fs.Int("load-qps", 48000, "load harness: full-rate target arrival rate (approached through a fractional ramp)")
		loadDuration = fs.Duration("load-duration", 2*time.Second, "load harness: duration of each ramp stage")
		loadSLO      = fs.Duration("load-slo", 25*time.Millisecond, "load harness: p99 latency budget a stage must meet to count as sustained")
		loadPeers    = fs.Int("load-peers", 3, "load harness: ring size (live TCP peers on loopback)")
		loadOut      = fs.String("load-out", "BENCH_load.json", "load harness: JSON report path")
		loadProfile  = fs.String("load-cpuprofile", "", "load harness: write a CPU profile of the run to this file")
		loadFlight   = fs.Bool("load-flight", false, "load harness: A/B the flight recorder (on vs off) and record its overhead under flight_overhead in the report")

		sigCache   = fs.Int("sigcache", 0, "per-peer signature-cache capacity (ranges); 0 disables caching")
		workloadP  = fs.String("workload", "", "query-distribution preset for quality runs: uniform (default) | zipf | clustered")
		metricsOut = fs.String("metrics-out", "", "write per-experiment metric deltas and the final snapshot to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "available experiments:", strings.Join(experiments.IDs(), " "))
		return 0
	}
	if *load {
		err := runLoad(loadOptions{
			qps:      *loadQPS,
			duration: *loadDuration,
			peers:    *loadPeers,
			out:      *loadOut,
			seed:     *seed,
			profile:  *loadProfile,
			slo:      *loadSLO,
			flight:   *loadFlight,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: -load: %v\n", err)
			return 1
		}
		return 0
	}
	if *fig == "" {
		fs.Usage()
		return 2
	}

	params := experiments.FullDefaults()
	if *quick {
		params = experiments.QuickDefaults()
	}
	params.Seed = *seed
	params.SigCache = *sigCache
	params.Workload = *workloadP

	ids := []string{*fig}
	if strings.EqualFold(*fig, "all") {
		ids = experiments.IDs()
	}
	dump := metricsDump{Experiments: make(map[string]metrics.Snapshot, len(ids))}
	for _, id := range ids {
		driver, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "rangebench: unknown experiment %q (try -list)\n", id)
			return 2
		}
		before := metrics.Default.Snapshot()
		start := time.Now()
		table, err := driver(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: %s: %v\n", id, err)
			return 1
		}
		elapsed := time.Since(start)
		dump.Experiments[table.ID] = metrics.Default.Snapshot().Sub(before)
		if err := emit(stdout, table, *format, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
			return 1
		}
		if *outDir == "" {
			fmt.Fprintf(stdout, "   (%s in %s)\n\n", table.ID, elapsed.Round(time.Millisecond))
		} else {
			fmt.Fprintf(stdout, "%s done in %s\n", table.ID, elapsed.Round(time.Millisecond))
		}
	}
	if *metricsOut != "" {
		dump.Total = metrics.Default.Snapshot()
		if err := writeMetrics(*metricsOut, dump); err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", *metricsOut)
	}
	return 0
}

// metricsDump is the -metrics-out JSON document: what each experiment
// contributed to every counter family, plus the run's cumulative totals.
type metricsDump struct {
	Experiments map[string]metrics.Snapshot `json:"experiments"`
	Total       metrics.Snapshot            `json:"total"`
}

// writeMetrics writes the dump as indented JSON.
func writeMetrics(path string, dump metricsDump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dump); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emit writes one table to stdout or to <outDir>/<id>.<ext>.
func emit(stdout io.Writer, table *experiments.Table, format, outDir string) error {
	write := func(w io.Writer) error {
		switch format {
		case "table":
			_, err := table.WriteTo(w)
			return err
		case "csv":
			return table.WriteCSV(w)
		default:
			return fmt.Errorf("unknown format %q (want table or csv)", format)
		}
	}
	if outDir == "" {
		return write(stdout)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ext := map[string]string{"table": "txt", "csv": "csv"}[format]
	if ext == "" {
		return fmt.Errorf("unknown format %q (want table or csv)", format)
	}
	f, err := os.Create(fmt.Sprintf("%s/%s.%s", outDir, table.ID, ext))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}
