package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"p2prange/internal/sim"
)

func init() {
	Register("churn", ChurnResilience)
}

// ChurnResilience measures lookup availability under abrupt peer crashes
// and a lossy network, with the failure handling this codebase adds —
// transport retries, suspect tracking, and successor-list rerouting —
// switched on and off. The paper evaluates static rings only; this
// ablation quantifies what fault tolerance buys once the churn its
// deployment setting implies (Section 6) is simulated.
//
// The restart rows extend the ablation with durability: one peer is
// crashed and restarted with the same identity, either cold (its store
// gone, the pre-durability behavior) or with a write-ahead log replayed
// from disk. Recovered counts descriptors back before rejoining the
// ring; backfilled ones had to be resupplied by arc reclaim and
// anti-entropy; lost ones are gone. The recovery column is WAL replay
// latency.
//
// The resident rows cap the restarted peer's in-memory store at a
// fraction of its working set and serve the rest from the sealed segment
// (read-through). recall% compares every answer byte-for-byte against an
// unbounded reboot of the same data — by construction it must stay at
// 100 while disk/q (segment reads per lookup) rises as the cap shrinks.
func ChurnResilience(p Params) (*Table, error) {
	t := &Table{
		ID:    "churn",
		Title: "Lookup availability under churn: fault tolerance on vs off",
		Columns: []string{"peers", "crashes", "drop%", "mode", "success%", "retries", "reroutes", "injected",
			"held", "recovered", "backfilled", "lost", "recovery", "recall%", "p99", "disk/q",
			"sync-recs", "sync-rows", "sync-KB", "ident"},
	}
	n := p.ClusterN
	if n < 16 {
		n = 16
	}
	lookups := p.Queries
	if lookups <= 0 {
		lookups = 500
	}
	shipMissed := lookups / 10
	if shipMissed < 10 {
		shipMissed = 10
	}
	cfg := sim.ChurnConfig{
		N:       n,
		Lookups: lookups,
		Drop:    0.02,
		Seed:    p.Seed,
	}
	t.Notes = fmt.Sprintf("%d lookups, %d-peer ring, crashes spread across the run, identical seeds per mode; "+
		"restart rows: %d descriptors published, 1 peer crashed and restarted (cold vs WAL replay); "+
		"resident rows: 1 durable peer rebooted with its memory capped at the named fraction of the working set, "+
		"overflow served from the sealed segment — recall%% is byte-identity against the unbounded reboot; "+
		"ship rows: a follower missing %d of %d writes converges by digest exchange vs WAL tail vs snapshot+tail — "+
		"ident is byte-identity against local recovery of the owner's directory",
		lookups, n, lookups, shipMissed, lookups+shipMissed)
	// Every durable row gets its own data directory under one root.
	root, err := os.MkdirTemp("", "p2prange-churn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	dir := func(name string) string { return filepath.Join(root, name) }
	for _, ft := range []bool{true, false} {
		cfg.FaultTolerance = ft
		res, err := sim.RunChurn(cfg)
		if err != nil {
			return nil, err
		}
		mode := "off"
		if ft {
			mode = "retry+reroute"
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", n/8),
			fmt.Sprintf("%.0f", cfg.Drop*100),
			mode,
			fmt.Sprintf("%.1f", res.SuccessRate()),
			fmt.Sprintf("%d", res.Retries),
			fmt.Sprintf("%d", res.Rerouted),
			fmt.Sprintf("%d", res.Injected),
			"-", "-", "-", "-", "-", "-", "-", "-",
			"-", "-", "-", "-",
		)
	}
	for _, durable := range []bool{false, true} {
		rcfg := sim.RestartConfig{
			N:          n,
			Partitions: lookups,
			Durable:    durable,
			Seed:       p.Seed,
		}
		mode := "restart-cold"
		if durable {
			mode = "restart+wal"
			rcfg.Dir = dir("restart")
		}
		res, err := sim.RunRestart(rcfg)
		if err != nil {
			return nil, err
		}
		recovery := "-"
		if durable {
			recovery = res.Recovery.Elapsed.Round(10 * time.Microsecond).String()
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			"1",
			"0",
			mode,
			"-", "-", "-", "-",
			fmt.Sprintf("%d", res.Held),
			fmt.Sprintf("%d", res.Recovered),
			fmt.Sprintf("%d", res.Backfilled),
			fmt.Sprintf("%d", res.Lost),
			recovery,
			"-", "-", "-",
			"-", "-", "-", "-",
		)
	}

	// Resident-set ablation: reboot one durable peer with its in-memory
	// store capped at 100/50/10% of the working set; the segment serves
	// the overflow. The 0% row is the unbounded baseline all answers are
	// compared against.
	var baseline *sim.ResidentResult
	for _, pct := range []int{0, 100, 50, 10} {
		res, err := sim.RunResident(sim.ResidentConfig{
			Partitions: lookups / 2,
			Queries:    lookups,
			CapPct:     pct,
			Dir:        dir(fmt.Sprintf("resident-%d", pct)),
			Seed:       p.Seed,
		})
		if err != nil {
			return nil, err
		}
		mode, recall := "resident-all", "100.0"
		if pct == 0 {
			baseline = res
		} else {
			mode = fmt.Sprintf("resident-%d%%", pct)
			recall = fmt.Sprintf("%.1f", 100*res.Recall(baseline))
		}
		t.AddRow(
			"1", "1", "0", mode,
			"-", "-", "-", "-",
			fmt.Sprintf("%d", res.Held),
			"-", "-", "-",
			res.Recovery.Elapsed.Round(10*time.Microsecond).String(),
			recall,
			res.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", res.DiskPerQuery()),
			"-", "-", "-", "-",
		)
	}

	// Ship ablation: a follower that synced once, missed a small batch
	// of writes, and converges again three ways. sync-recs is what moved
	// (records or pushed descriptors), sync-rows the digest's version-
	// vector rows (the O(store) term the log-shipping path eliminates),
	// ident the byte-identity shadow check against local recovery.
	for _, mode := range []string{sim.ShipModeDigest, sim.ShipModeTail, sim.ShipModeSnapshot} {
		res, err := sim.RunShip(sim.ShipConfig{
			Base: lookups, Missed: shipMissed, Mode: mode,
			OwnerDir: dir("ship-owner-" + mode), FollowerDir: dir("ship-follower-" + mode), Seed: p.Seed,
		})
		if err != nil {
			return nil, err
		}
		ident := "no"
		if res.Identical {
			ident = "yes"
		}
		rows := "-"
		if mode == sim.ShipModeDigest {
			rows = fmt.Sprintf("%d", res.DigestRows)
		}
		t.AddRow(
			"2", "0", "0", "ship-"+mode,
			"-", "-", "-", "-",
			fmt.Sprintf("%d", res.Held),
			"-", "-", "-",
			res.Elapsed.Round(10*time.Microsecond).String(),
			"-", "-", "-",
			fmt.Sprintf("%d", res.SyncRecords),
			rows,
			fmt.Sprintf("%.1f", float64(res.SyncBytes)/1024),
			ident,
		)
	}
	return t, nil
}
