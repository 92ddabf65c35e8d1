// Command rangeql is an interactive SQL shell over the P2P range-selection
// system — either a self-contained simulated cluster preloaded with the
// paper's medical schema and synthetic data, or (with -connect) a live TCP
// ring of peerd processes. Selection leaves are resolved through the DHT:
// the first execution of a range predicate goes to the data source and
// caches the partition; later similar predicates are answered from peer
// caches.
//
//	rangeql                              # interactive shell, simulated ring
//	rangeql -e "SELECT ... "             # one-shot
//	rangeql -trace -e "SELECT .."        # one-shot with a per-query hop tree
//	rangeql -connect 127.0.0.1:7001 \
//	        -trace -e "SELECT ..."       # against a live peerd ring
//
// With -connect the shell starts an ephemeral peer on a local port, joins
// the ring via the given bootstrap address, and leaves gracefully on exit.
// The ring must share the default LSH parameters (-family approx, -k 20,
// -l 5); -seed doubles as the ring's -scheme-seed. The generated medical
// relations are registered locally as source fallback only — nothing is
// published — so queries run even against an empty ring, while predicates
// the ring has published partitions for are answered from remote peers.
//
// Meta commands: \plan <sql> shows the physical plan, \loads shows the
// per-peer stored-descriptor counts, \trace toggles per-query tracing,
// \q quits. With tracing on, every query prints a span tree — one branch
// per scan leaf, one sub-branch per LSH probe with its chord hops,
// retries, and detours — plus, over a live ring, the serve spans executed
// on the remote peers, grafted back with per-peer attribution (see
// docs/OBSERVABILITY.md for how to read it).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"p2prange"
	"p2prange/internal/flight"
	"p2prange/internal/relation"
)

// engine is the query surface shared by the simulated System and a live
// LivePeer, so the shell runs identically over both.
type engine interface {
	Query(sql string) (*p2prange.QueryResult, error)
	QueryTraced(sql string) (*p2prange.QueryResult, *p2prange.Trace, error)
	AddBase(r *p2prange.Relation) error
}

func main() {
	var (
		peers    = flag.Int("peers", 32, "number of simulated peers (ignored with -connect)")
		connect  = flag.String("connect", "", "join the live ring via this bootstrap peer instead of simulating")
		exec     = flag.String("e", "", "execute one statement and exit")
		seed     = flag.Int64("seed", 1, "system seed; with -connect, the ring's -scheme-seed")
		pad      = flag.Float64("pad", 0, "query padding fraction (e.g. 0.2; simulated mode only)")
		sigCache = flag.Int("sigcache", 256, "per-peer signature-cache capacity (ranges); 0 disables")
		traceOn  = flag.Bool("trace", false, "print a per-query span tree (hops, retries, cache outcomes)")
	)
	flag.Parse()

	var (
		eng    engine
		banner string
	)
	if *connect != "" {
		lp, err := connectLive(*connect, *seed, *sigCache)
		if err != nil {
			log.Fatalf("rangeql: %v", err)
		}
		// Leave hands stored buckets to the successor and unlinks the
		// ephemeral peer from the ring; without it the ring would carry a
		// dead member until stabilization notices.
		defer lp.Leave()
		eng = lp
		banner = fmt.Sprintf("rangeql: joined ring via %s as %s, medical schema loaded", *connect, lp.Ref())
	} else {
		sys, err := buildSystem(*peers, *seed, *pad, *sigCache)
		if err != nil {
			log.Fatalf("rangeql: %v", err)
		}
		eng = sys
		banner = fmt.Sprintf("rangeql: %d peers, medical schema loaded (Patient, Diagnosis, Physician, Prescription)", *peers)
	}

	if *exec != "" {
		if err := run(eng, *exec, *traceOn); err != nil {
			log.Fatalf("rangeql: %v", err)
		}
		return
	}

	fmt.Println(banner)
	fmt.Println(`type SQL, or \plan <sql>, \loads, \trace, \slow, \dump <rel> <file>, \load <rel> <file>, \q`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("rangeql> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q`:
			return
		case line == `\loads`:
			showLoads(eng)
		case line == `\trace`:
			*traceOn = !*traceOn
			fmt.Printf("tracing %v\n", map[bool]string{true: "on", false: "off"}[*traceOn])
		case line == `\slow`:
			showSlow(eng)
		case strings.HasPrefix(line, `\plan `):
			sys, ok := eng.(*p2prange.System)
			if !ok {
				fmt.Println(`error: \plan needs the simulated planner (run without -connect)`)
				continue
			}
			plan, err := sys.Plan(strings.TrimPrefix(line, `\plan `))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(plan)
		case strings.HasPrefix(line, `\dump `), strings.HasPrefix(line, `\load `):
			if err := dumpOrLoad(eng, line); err != nil {
				fmt.Println("error:", err)
			}
		default:
			if err := run(eng, line, *traceOn); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

// connectLive joins the ring as an ephemeral peer and registers the
// generated medical relations as local source fallback (not published).
func connectLive(bootstrap string, seed int64, sigCache int) (*p2prange.LivePeer, error) {
	lp, err := p2prange.Connect(bootstrap, p2prange.LiveConfig{
		Family:     p2prange.ApproxMinWise,
		SchemeSeed: seed,
		Schema:     relation.MedicalSchema(),
		SigCache:   sigCache,
	})
	if err != nil {
		return nil, err
	}
	rels, err := relation.GenerateMedical(relation.DefaultMedicalConfig())
	if err != nil {
		lp.Leave()
		return nil, err
	}
	for _, r := range rels {
		if err := lp.AddBase(r); err != nil {
			lp.Leave()
			return nil, err
		}
	}
	return lp, nil
}

// showSlow dumps this peer's flight recorder: the slow ring when any
// query crossed the threshold, the since-boot top-K otherwise — each
// entry with its stitched span tree, exactly what \trace would have
// printed, captured after the fact with no flag set.
func showSlow(eng engine) {
	lp, ok := eng.(*p2prange.LivePeer)
	if !ok {
		fmt.Println(`error: \slow reads the live flight recorder (run with -connect)`)
		return
	}
	rec := lp.Flight()
	if !rec.On() {
		fmt.Println("flight recorder disabled")
		return
	}
	entries := rec.Entries(flight.RingSlow)
	if len(entries) == 0 {
		entries = rec.Entries(flight.RingTop)
		if len(entries) == 0 {
			fmt.Println("no queries recorded yet")
			return
		}
		fmt.Printf("no queries over the %s slow threshold yet; slowest since boot:\n", rec.SlowThreshold())
	}
	for _, e := range entries {
		fmt.Println(e.String())
		fmt.Print(e.Root.Tree(true))
	}
}

// showLoads prints per-peer descriptor counts (simulated) or this peer's
// own count (live — remote counts come from rangetop).
func showLoads(eng engine) {
	switch e := eng.(type) {
	case *p2prange.System:
		fmt.Println(e.Loads())
	case *p2prange.LivePeer:
		fmt.Printf("local stored descriptors: %d (cluster-wide view: rangetop)\n", e.StoredPartitions())
	}
}

// dumpOrLoad handles "\dump <rel> <file>" and "\load <rel> <file>".
func dumpOrLoad(eng engine, line string) error {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return fmt.Errorf("usage: %s <relation> <file>", fields[0])
	}
	cmd, rel, path := fields[0], fields[1], fields[2]
	switch cmd {
	case `\dump`:
		sys, ok := eng.(*p2prange.System)
		if !ok {
			return fmt.Errorf(`\dump needs the simulated system (run without -connect)`)
		}
		r, ok := sys.Base(rel)
		if !ok {
			return fmt.Errorf("no base relation %q", rel)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("wrote %d tuples to %s\n", r.Len(), path)
		return f.Close()
	case `\load`:
		rs, ok := relation.MedicalSchema().Relation(rel)
		if !ok {
			return fmt.Errorf("relation %q not in the schema", rel)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := relation.ReadCSV(rs, f)
		if err != nil {
			return err
		}
		if err := eng.AddBase(r); err != nil {
			return err
		}
		fmt.Printf("loaded %d tuples into %s\n", r.Len(), rel)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func buildSystem(peers int, seed int64, pad float64, sigCache int) (*p2prange.System, error) {
	sys, err := p2prange.New(p2prange.Config{
		Peers:    peers,
		Family:   p2prange.ApproxMinWise,
		Measure:  p2prange.MatchContainment,
		PadFrac:  pad,
		Seed:     seed,
		Schema:   relation.MedicalSchema(),
		SigCache: sigCache,
	})
	if err != nil {
		return nil, err
	}
	rels, err := relation.GenerateMedical(relation.DefaultMedicalConfig())
	if err != nil {
		return nil, err
	}
	for _, r := range rels {
		if err := sys.AddBase(r); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

func run(eng engine, sql string, traceOn bool) error {
	var res *p2prange.QueryResult
	var err error
	if traceOn {
		var tr *p2prange.Trace
		res, tr, err = eng.QueryTraced(sql)
		if tr != nil {
			// The trace is printed even when execution failed partway: the
			// hops recorded up to the failure are the diagnostic.
			fmt.Print(tr.Tree(true))
		}
	} else {
		res, err = eng.Query(sql)
	}
	if err != nil {
		return err
	}
	headers := make([]string, len(res.Columns))
	for i, c := range res.Columns {
		headers[i] = c.String()
	}
	fmt.Println(strings.Join(headers, " | "))
	const maxRows = 25
	for i, row := range res.Rows {
		if i == maxRows {
			fmt.Printf("... (%d rows total)\n", len(res.Rows))
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("%d row(s)", len(res.Rows))
	for k, r := range res.ScanRecall {
		fmt.Printf("  [%s recall %.2f]", k, r)
	}
	fmt.Println()
	return nil
}
