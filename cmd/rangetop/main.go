// Command rangetop is the cluster-wide observability aggregator: it polls
// every peer's /status endpoint (served by peerd -debug-addr), merges the
// per-process metric snapshots into one cluster view, and renders a
// refreshing ranked terminal display of per-peer load plus cluster
// rollups — ring-wide load imbalance, hop-count and lookup-latency
// percentiles, signature-cache hit rate, replica repair activity, and
// per-peer deltas since the previous refresh.
//
//	rangetop -peers 127.0.0.1:8001,127.0.0.1:8002,127.0.0.1:8003
//	rangetop -peers 127.0.0.1:8001,127.0.0.1:8002 -once -json
//
// -peers takes the peers' debug addresses (the -debug-addr values, not
// the ring listen addresses). With -once the display renders a single
// time and exits; adding -json emits the raw obs.ClusterView JSON
// instead, for scripts and the EXPERIMENTS.md walkthroughs. Peers that
// fail to answer are reported and skipped, so a crashed peer does not
// blind the aggregator. See docs/OBSERVABILITY.md for the column
// reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"p2prange/internal/obs"
)

func main() {
	var (
		peers    = flag.String("peers", "", "comma-separated peer debug addresses (host:port of -debug-addr)")
		interval = flag.Duration("interval", 2*time.Second, "poll/refresh interval")
		once     = flag.Bool("once", false, "poll once, render, and exit")
		asJSON   = flag.Bool("json", false, "emit the cluster view as JSON (with -once: a single document)")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-peer HTTP timeout")
	)
	flag.Parse()
	addrs := splitAddrs(*peers)
	if len(addrs) == 0 {
		log.Fatal("rangetop: -peers is required (comma-separated debug addresses)")
	}
	client := &http.Client{Timeout: *timeout}

	var prev map[string]obs.NodeStatus
	for {
		nodes, errs := poll(client, addrs)
		view := obs.Compute(nodes, nil)
		if *asJSON {
			if !*once {
				for _, e := range errs {
					fmt.Fprintf(os.Stderr, "rangetop: unreachable: %s\n", e)
				}
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(view); err != nil {
				log.Fatalf("rangetop: %v", err)
			}
		} else {
			render(view, prev, errs, !*once)
		}
		if *once {
			// A single-shot poll is a health check as much as a snapshot:
			// any unreachable peer makes the exit status non-zero so
			// scripts and CI notice, with the unreachable set on stderr.
			if len(errs) > 0 {
				for _, e := range errs {
					fmt.Fprintf(os.Stderr, "rangetop: unreachable: %s\n", e)
				}
				os.Exit(1)
			}
			return
		}
		prev = byAddr(nodes)
		time.Sleep(*interval)
	}
}

// splitAddrs parses the -peers list, dropping empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// poll fetches every peer's status, returning the reachable ones and a
// per-address error list for the rest.
func poll(client *http.Client, addrs []string) ([]obs.NodeStatus, []string) {
	var nodes []obs.NodeStatus
	var errs []string
	for _, addr := range addrs {
		st, err := fetchStatus(client, addr)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", addr, err))
			continue
		}
		nodes = append(nodes, st)
	}
	return nodes, errs
}

// fetchStatus GETs one peer's /status document.
func fetchStatus(client *http.Client, addr string) (obs.NodeStatus, error) {
	var st obs.NodeStatus
	resp, err := client.Get("http://" + addr + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode: %w", err)
	}
	return st, nil
}

// byAddr indexes statuses for delta computation across refreshes.
func byAddr(nodes []obs.NodeStatus) map[string]obs.NodeStatus {
	m := make(map[string]obs.NodeStatus, len(nodes))
	for _, n := range nodes {
		m[n.Addr] = n
	}
	return m
}

// render paints one refresh: a rollup header, the ranked per-peer table
// (busiest first, with deltas since the previous refresh), and any
// unreachable peers. clear redraws from the top-left for live mode.
func render(v obs.ClusterView, prev map[string]obs.NodeStatus, errs []string, clear bool) {
	var b strings.Builder
	if clear {
		b.WriteString("\033[2J\033[H")
	}
	r := v.Rollup
	fmt.Fprintf(&b, "rangetop — %d/%d peers stable — %s\n\n",
		r.StablePeers, r.Peers, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "  stored   total=%-6d max=%-5d mean=%-8.1f imbalance=%.2f\n",
		r.TotalStored, r.MaxStored, r.MeanStored, r.StoredImbalance)
	fmt.Fprintf(&b, "  served   total=%-6d max=%-5d imbalance=%.2f\n",
		r.TotalServed, r.MaxServed, r.ServedImbalance)
	fmt.Fprintf(&b, "  hops     p50=%-5.1f p95=%-5.1f p99=%.1f\n", r.HopP50, r.HopP95, r.HopP99)
	fmt.Fprintf(&b, "  lookup   p50=%-5.0fus p95=%-5.0fus p99=%.0fus\n",
		r.LookupP50US, r.LookupP95US, r.LookupP99US)
	fmt.Fprintf(&b, "  sig-hit  %.1f%%   lookup-success %.1f%%   transport-errors %.2f%%\n",
		100*r.SigHitRate, 100*r.LookupSuccessRate, 100*r.TransportErrorRate)
	fmt.Fprintf(&b, "  replica  repaired=%d sync-rounds=%d promotions=%d\n",
		r.ReplicaRepaired, r.ReplicaSyncRounds, r.ReplicaPromotions)
	if r.FlightFinished > 0 || r.EventWarns+r.EventErrors > 0 {
		worst := "-"
		if r.WorstQueryUS > 0 {
			worst = fmt.Sprintf("%s @%s", fmtUS(r.WorstQueryUS), r.WorstQueryPeer)
		}
		fmt.Fprintf(&b, "  flight   finished=%d kept-slow=%d worst=%s   events warn=%d err=%d\n",
			r.FlightFinished, r.FlightKeptSlow, worst, r.EventWarns, r.EventErrors)
	}
	g := v.Global
	if g.Counters["ship.push_records"]+g.Counters["ship.applied_records"]+
		g.Counters["replica.ship_synced"] > 0 {
		fmt.Fprintf(&b, "  ship     pushed=%d applied=%d resets=%d digest-fallbacks=%d\n",
			g.Counters["ship.push_records"], g.Counters["ship.applied_records"],
			g.Counters["ship.push_resets"], g.Counters["replica.ship_fallbacks"])
	}
	b.WriteString("\n")

	nodes := append([]obs.NodeStatus(nil), v.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Served > nodes[j].Served })
	fmt.Fprintf(&b, "  %-22s %-10s %8s %8s %8s %8s %9s  %s\n",
		"ADDR", "ID", "STORED", "ΔSTORED", "SERVED", "ΔSERVED", "WORST", "STATE")
	for _, n := range nodes {
		dStored, dServed := "-", "-"
		if p, ok := prev[n.Addr]; ok {
			dStored = fmt.Sprintf("%+d", n.Stored-p.Stored)
			dServed = fmt.Sprintf("%+d", n.Served-p.Served)
		}
		state := "stable"
		if !n.Stable {
			state = "stabilizing"
		}
		// Worst recent query from the peer's flight recorder — the cell
		// that answers "which peer is hurting" before anyone greps logs.
		worst := "-"
		if n.Flight != nil && n.Flight.WorstUS > 0 {
			worst = fmtUS(n.Flight.WorstUS)
		}
		id := n.Ref
		if i := strings.IndexByte(id, '@'); i > 0 {
			id = id[:i]
		}
		fmt.Fprintf(&b, "  %-22s %-10s %8d %8s %8d %8s %9s  %s\n",
			n.Addr, id, n.Stored, dStored, n.Served, dServed, worst, state)
		if d := n.Durable; d != nil && d.RetainedBytes > 0 {
			// Retention pressure from push cursors, indented under the
			// owning peer.
			fmt.Fprintf(&b, "  %24s wal=%s seg=%s retained=%s\n", "",
				fmtBytes(d.WALBytes), fmtBytes(d.SegmentBytes), fmtBytes(d.RetainedBytes))
		}
	}
	renderEvents(&b, nodes)
	for _, e := range errs {
		fmt.Fprintf(&b, "  unreachable: %s\n", e)
	}
	os.Stdout.WriteString(b.String())
}

// renderEvents paints the cluster event pane: the newest journal lines
// across every polled peer, merged by timestamp. Peers sharing one
// process share one journal, so identical lines are deduplicated.
func renderEvents(b *strings.Builder, nodes []obs.NodeStatus) {
	type row struct {
		addr string
		e    obs.Event
	}
	var rows []row
	seen := make(map[string]bool)
	for _, n := range nodes {
		if n.Events == nil {
			continue
		}
		for _, e := range n.Events.Recent {
			key := e.Time.String() + "|" + e.Sub + "|" + e.Msg
			if seen[key] {
				continue
			}
			seen[key] = true
			rows = append(rows, row{addr: n.Addr, e: e})
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].e.Time.After(rows[j].e.Time) })
	if len(rows) > 10 {
		rows = rows[:10]
	}
	b.WriteString("\n  EVENTS (newest first)\n")
	for _, r := range rows {
		fmt.Fprintf(b, "  %s %-5s [%s] %s\n",
			r.e.Time.Format("15:04:05"), r.e.Sev, r.e.Sub, r.e.Msg)
	}
}

// fmtUS renders a microsecond duration compactly (e.g. 850µs, 12.5ms).
func fmtUS(us int64) string {
	if us <= 0 {
		return "-"
	}
	return time.Duration(us * int64(time.Microsecond)).Round(10 * time.Microsecond).String()
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
