// Command peerd runs one live peer of the P2P range-selection system over
// TCP. Start a ring and join more peers:
//
//	peerd -listen 127.0.0.1:7001
//	peerd -listen 127.0.0.1:7002 -join 127.0.0.1:7001
//	peerd -listen 127.0.0.1:7003 -join 127.0.0.1:7001
//
// Every peer of a ring must share -family/-k/-l/-scheme-seed (the LSH key
// material). The daemon prints its chord identity and periodic status
// lines, and exits cleanly on SIGINT/SIGTERM with a graceful leave.
//
// With -data-dir the partition store is durable: every mutation is
// journaled to a write-ahead log in that directory, fsynced before the
// write is acknowledged (-fsync always, the default), folded into
// immutable segment files as it grows (-compact-every), and replayed on
// the next start with the same directory — a killed peer rejoins with
// the descriptors it held instead of an empty store. See
// docs/DURABILITY.md for the on-disk format and operator runbook.
//
// A durable peer can also ship its log: -follow OWNER tails that peer's
// WAL (seeding from its sealed segment when too far behind) so this
// peer's store converges to a byte-identical image of the owner's;
// -ship-retain bounds the WAL bytes kept for follower cursors; and
// -backup-to mirrors every sealed segment into a directory that
// cmd/walctl can verify and restore offline.
//
// With -debug-addr the daemon also serves an HTTP debug endpoint:
// /debug/vars (expvar JSON including the full p2prange metrics snapshot —
// route.*, sig.*, chord.*, peer.*, transport.* families), /debug/pprof
// (the standard net/http/pprof profiles), /metrics (JSON snapshot),
// /metrics/prom (Prometheus text format with p50/p95/p99 histogram
// summaries), /status (the peer's NodeStatus for rangetop), and /healthz
// (readiness, 200 once ring stabilization settles). See
// docs/OBSERVABILITY.md for the metric catalogue and scraping examples.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p2prange"
	"p2prange/internal/flight"
	"p2prange/internal/metrics"
	"p2prange/internal/obs"
	"p2prange/internal/relation"
	"p2prange/internal/transport"
)

// publishFlags collects repeatable -publish values of the form
// Relation=file.csv:attribute:lo-hi — load the CSV, materialize the
// [lo,hi] partition over the attribute, and publish its descriptor.
type publishFlags []string

func (p *publishFlags) String() string     { return strings.Join(*p, ",") }
func (p *publishFlags) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7001", "address to listen on")
		join       = flag.String("join", "", "bootstrap peer to join (empty: start a new ring)")
		family     = flag.String("family", "approx", "hash family: minwise | approx | linear")
		k          = flag.Int("k", 20, "hash functions per group")
		l          = flag.Int("l", 5, "number of groups")
		schemeSeed = flag.Int64("scheme-seed", 1, "shared LSH key-material seed (must match across the ring)")
		status     = flag.Duration("status", 10*time.Second, "status print interval (0 disables)")
		retries    = flag.Int("retries", 3, "RPC attempts per call (1 disables transport retries)")
		drop       = flag.Float64("drop", 0, "inject per-RPC drop probability in [0,1] (resilience testing)")
		sigCache   = flag.Int("sigcache", 256, "signature-cache capacity (ranges); 0 disables")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/vars (expvar) and /debug/pprof on this address (empty disables)")

		replicas    = flag.Int("replicas", 0, "successor copies per stored descriptor; 0 disables replication")
		loadAware   = flag.Bool("load-aware", false, "route probes to the least-loaded live replica (needs -replicas)")
		repairEvery = flag.Duration("repair-every", 0, "anti-entropy repair interval (0: chord maintenance default)")

		dataDir      = flag.String("data-dir", "", "durable store directory: WAL + segments, replayed on restart (empty: memory-only)")
		fsync        = flag.String("fsync", "always", "durability barrier with -data-dir: always (fsync before ack) | off (page cache)")
		compactEvery = flag.Int("compact-every", 0, "fold WAL into a segment after this many records (0: default 4096; <0 disables)")
		memLimit     = flag.Int("mem-limit", 0, "max descriptors resident in memory; with -data-dir overflow is served from segments (read-through), without it overflow is dropped (LRU); 0 unbounded")

		follow     = flag.String("follow", "", "tail that peer's WAL (log shipping): seed from its segment, then apply its record stream")
		shipRetain = flag.Int64("ship-retain", 0, "WAL bytes kept past a fold for follower cursors (0: 64MiB default; <0 retains nothing)")
		backupTo   = flag.String("backup-to", "", "mirror every sealed segment into this directory (restore with walctl restore)")

		slowThreshold = flag.Duration("slow-threshold", 0, "flight recorder slow-query cutoff (0: 25ms default)")
		flightOff     = flag.Bool("flight-off", false, "disable the always-on flight recorder (/debug/slow serves nothing)")
		eventsDir     = flag.String("events-dir", "", "directory for the durable cluster event journal events.log (empty: -data-dir; both empty: memory-only ring)")
		faultDelay    = flag.Duration("fault-delay", 0, "inject this latency into every outgoing RPC (fault testing; pairs with the flight recorder demo)")
	)
	var publishes publishFlags
	flag.Var(&publishes, "publish",
		"publish a partition: Relation=file.csv:attribute:lo-hi (repeatable; medical schema)")
	flag.Parse()

	fam, err := parseFamily(*family)
	if err != nil {
		log.Fatalf("peerd: %v", err)
	}
	cfg := p2prange.LiveConfig{
		Family:        fam,
		K:             *k,
		L:             *l,
		SchemeSeed:    *schemeSeed,
		Schema:        relation.MedicalSchema(),
		Retry:         transport.RetryConfig{Attempts: *retries},
		SigCache:      *sigCache,
		Replicas:      *replicas,
		LoadAware:     *loadAware,
		DataDir:       *dataDir,
		Fsync:         *fsync,
		CompactEvery:  *compactEvery,
		MemLimit:      *memLimit,
		Follow:        *follow,
		ShipRetain:    *shipRetain,
		BackupTo:      *backupTo,
		SlowThreshold: *slowThreshold,
		FlightOff:     *flightOff,
		EventsDir:     *eventsDir,
	}
	cfg.Stabilize.RepairEvery = *repairEvery
	if *drop > 0 || *faultDelay > 0 {
		cfg.Fault = &transport.FaultConfig{Drop: *drop}
		if *faultDelay > 0 {
			cfg.Fault.Delay = *faultDelay
			cfg.Fault.DelayProb = 1
		}
	}
	lp, err := p2prange.StartPeer(*listen, *join, cfg)
	if err != nil {
		log.Fatalf("peerd: %v", err)
	}
	log.Printf("peerd: serving as %s", lp.Ref())
	if *dataDir != "" {
		rec := lp.Recovery()
		log.Printf("peerd: recovered %s: %d from segment %d, %d replayed from %d wal file(s) in %s (torn tail: %v)",
			*dataDir, rec.SegmentRecords, rec.SegmentSeq, rec.Replayed, rec.WALFiles,
			rec.Elapsed.Round(time.Microsecond), rec.TornTail)
		if rec.ReadThrough {
			log.Printf("peerd: read-through on: resident cap %d descriptors, %d on segment (index rebuilt: %v)",
				*memLimit, rec.SegmentRecords, rec.IndexRebuilt)
		}
	}
	if *follow != "" {
		log.Printf("peerd: following %s (log shipping)", *follow)
	}
	if *debugAddr != "" {
		startDebugServer(*debugAddr, lp)
	}
	if *join != "" {
		if lp.WaitStable(5 * time.Second) {
			log.Printf("peerd: joined ring via %s; successor %s", *join, lp.Successor())
			if err := lp.ReclaimArc(); err != nil {
				log.Printf("peerd: reclaim arc: %v", err)
			}
		} else {
			log.Printf("peerd: stabilization still in progress")
		}
	}
	for _, spec := range publishes {
		if err := publishSpec(lp, spec); err != nil {
			log.Fatalf("peerd: -publish %q: %v", spec, err)
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	var tick <-chan time.Time
	if *status > 0 {
		t := time.NewTicker(*status)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			s := metrics.Default.Snapshot()
			lookups := s.Counters["route.lookups"]
			success := 100.0
			if lookups > 0 {
				success = 100 * float64(lookups-s.Counters["route.failed_lookups"]) / float64(lookups)
			}
			log.Printf("peerd: successor=%s stored=%d lookups=%d success=%.1f%% retries=%d reroutes=%d sighits=%.0f%%",
				lp.Successor(), lp.StoredPartitions(),
				lookups, success, s.Counters["route.retries"], s.Counters["route.rerouted"], lp.SigStats().HitRate())
		case sig := <-sigc:
			log.Printf("peerd: %v: leaving ring", sig)
			if err := lp.Leave(); err != nil {
				log.Printf("peerd: leave: %v", err)
			}
			return
		}
	}
}

// startDebugServer exposes the observability endpoints on addr: expvar's
// /debug/vars carrying the full Default-registry snapshot under the
// "p2prange" key plus peer identity/state under "peerd", and pprof's
// /debug/pprof (registered by the net/http/pprof import).
func startDebugServer(addr string, lp *p2prange.LivePeer) {
	expvar.Publish("p2prange", expvar.Func(func() any {
		return metrics.Default.Snapshot()
	}))
	expvar.Publish("peerd", expvar.Func(func() any {
		s := metrics.Default.Snapshot()
		return map[string]any{
			"ref":       lp.Ref().String(),
			"successor": lp.Successor().String(),
			"stored":    lp.StoredPartitions(),
			"lookups":   s.Counters["route.lookups"],
			"retries":   s.Counters["route.retries"],
			"rerouted":  s.Counters["route.rerouted"],
		}
	}))
	// /metrics serves the bare registry snapshot for tools that do not
	// want to peel the expvar envelope.
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(metrics.Default.Snapshot())
	})
	// /metrics/prom serves the same registry in Prometheus text format,
	// each histogram with p50/p95/p99 summary gauges.
	http.HandleFunc("/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.Default.Snapshot().WritePrometheus(w)
	})
	// /status serves the peer's self-description for rangetop.
	http.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(lp.Status())
	})
	// /healthz is the readiness probe: 200 once ring stabilization has
	// settled this peer's links, 503 before.
	http.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if lp.Stable() {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "stabilizing")
	})
	// /debug/slow dumps the flight recorder's slow ring, newest first,
	// each entry with its fully stitched span tree — the query that was
	// slow ten minutes ago, already captured, no flag needed.
	http.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		serveFlightRing(w, r, lp, flight.RingSlow)
	})
	// /debug/flight serves any retention ring (?ring=slow|top|errored|
	// hops|recent, default recent) plus the recorder's counters. Trees
	// are included unless ?tree=0.
	http.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		ring := r.URL.Query().Get("ring")
		if ring == "" {
			ring = flight.RingRecent
		}
		serveFlightRing(w, r, lp, ring)
	})
	// /debug/events serves the cluster event journal, newest first
	// (?n= bounds the count, default the whole ring).
	http.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if s := r.URL.Query().Get("n"); s != "" {
			n, _ = strconv.Atoi(s)
		}
		total, warns, errs := obs.Events.Counts()
		durable, derr := lp.EventsDurable()
		out := struct {
			Total      uint64      `json:"total"`
			Warns      uint64      `json:"warns"`
			Errors     uint64      `json:"errors"`
			Durable    bool        `json:"durable"`
			DurableErr string      `json:"durable_err,omitempty"`
			Events     []obs.Event `json:"events"`
		}{Total: total, Warns: warns, Errors: errs, Durable: durable, Events: obs.Events.Recent(n)}
		if derr != nil {
			out.DurableErr = derr.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	go func() {
		log.Printf("peerd: debug endpoint on http://%s/debug/vars (pprof at /debug/pprof; /metrics, /metrics/prom, /status, /healthz, /debug/slow, /debug/flight, /debug/events)", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("peerd: debug server: %v", err)
		}
	}()
}

// serveFlightRing writes one flight-recorder ring as JSON: the
// recorder's counters followed by the ring's entries (newest first;
// "top" slowest first), each with its rendered span tree unless the
// request says ?tree=0.
func serveFlightRing(w http.ResponseWriter, r *http.Request, lp *p2prange.LivePeer, ring string) {
	rec := lp.Flight()
	if !rec.On() {
		http.Error(w, "flight recorder disabled (-flight-off)", http.StatusNotFound)
		return
	}
	withTree := r.URL.Query().Get("tree") != "0"
	entries := rec.Entries(ring)
	views := make([]flight.View, 0, len(entries))
	for _, e := range entries {
		views = append(views, flight.RenderView(e, withTree))
	}
	out := struct {
		Ring    string        `json:"ring"`
		Stats   flight.Stats  `json:"stats"`
		Entries []flight.View `json:"entries"`
	}{Ring: ring, Stats: rec.Stats(), Entries: views}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// parsePublishSpec splits "Relation=file.csv:attribute:lo-hi" into its
// parts. The range separator is the first '-' after the first character,
// so a negative lower bound ("-5-10") parses.
func parsePublishSpec(spec string) (rel, path, attr string, rg p2prange.Range, err error) {
	rel, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return "", "", "", rg, fmt.Errorf("want Relation=file.csv:attribute:lo-hi")
	}
	parts := strings.Split(rest, ":")
	if len(parts) != 3 {
		return "", "", "", rg, fmt.Errorf("want file.csv:attribute:lo-hi")
	}
	path, attr, rgSpec := parts[0], parts[1], parts[2]
	sep := -1
	if len(rgSpec) > 1 {
		if i := strings.IndexByte(rgSpec[1:], '-'); i >= 0 {
			sep = i + 1
		}
	}
	if sep < 0 {
		return "", "", "", rg, fmt.Errorf("bad range %q (want lo-hi)", rgSpec)
	}
	lo, err1 := strconv.ParseInt(rgSpec[:sep], 10, 64)
	hi, err2 := strconv.ParseInt(rgSpec[sep+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return "", "", "", rg, fmt.Errorf("bad range %q", rgSpec)
	}
	if rg, err = p2prange.NewRange(lo, hi); err != nil {
		return "", "", "", rg, err
	}
	return rel, path, attr, rg, nil
}

// publishSpec parses a -publish spec, loads the CSV, and publishes the
// materialized partition.
func publishSpec(lp *p2prange.LivePeer, spec string) error {
	relName, path, attr, rg, err := parsePublishSpec(spec)
	if err != nil {
		return err
	}
	rs, ok := relation.MedicalSchema().Relation(relName)
	if !ok {
		return fmt.Errorf("relation %q not in the medical schema", relName)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rel, err := relation.ReadCSV(rs, f)
	if err != nil {
		return err
	}
	if err := lp.AddPartition(rel, attr, rg); err != nil {
		return err
	}
	if err := lp.Publish(lp.Descriptor(relName, attr, rg)); err != nil {
		return err
	}
	log.Printf("peerd: published %s.%s%s from %s (%d tuples loaded)",
		relName, attr, rg, path, rel.Len())
	return nil
}

func parseFamily(s string) (p2prange.Family, error) {
	switch s {
	case "minwise":
		return p2prange.MinWise, nil
	case "approx":
		return p2prange.ApproxMinWise, nil
	case "linear":
		return p2prange.Linear, nil
	default:
		return 0, fmt.Errorf("unknown family %q (want minwise, approx, or linear)", s)
	}
}
