package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"p2prange/internal/chord"
	"p2prange/internal/metrics"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/rangeset"
	"p2prange/internal/store"
	"p2prange/internal/transport"
	"p2prange/internal/wal"
	"p2prange/internal/workload"
)

// Resident-set ablation: seed one durable peer with a working set, seal
// it into a segment, then reboot the peer with its in-memory store capped
// to a fraction of that set and replay an identical query mix. With
// segment read-through the capped peer must answer every query exactly
// like the unbounded baseline — the cap costs disk reads and latency,
// never recall. This is the experiment behind `rangebench -fig churn`'s
// resident rows and the acceptance test for `peerd -mem-limit`.

// ResidentConfig parameterizes one capped-reboot run.
type ResidentConfig struct {
	// Partitions is the number of distinct ranges seeded (default 400).
	Partitions int
	// Queries is the size of the lookup mix (default 300).
	Queries int
	// CapPct caps the resident descriptor count at this percentage of the
	// seeded working set (0 = unbounded: the whole set stays in memory and
	// the segment tier is never consulted).
	CapPct int
	// Dir is the peer's data directory (required).
	Dir string
	// Seed drives all randomness; runs with equal seeds see identical
	// partition catalogs and query mixes.
	Seed int64
}

func (cfg *ResidentConfig) withDefaults() ResidentConfig {
	out := *cfg
	if out.Partitions <= 0 {
		out.Partitions = 400
	}
	if out.Queries <= 0 {
		out.Queries = 300
	}
	return out
}

// ResidentResult reports one capped run.
type ResidentResult struct {
	// Held is the seeded working-set size (descriptors on the peer).
	Held int
	// Cap is the applied resident limit in descriptors (0 = unbounded).
	Cap int
	// Resident is the in-memory descriptor count after the query mix.
	Resident int
	// Answers fingerprints every query's result in mix order — match
	// identity, score, and found flag. Two runs answered identically
	// exactly when their Answers are element-wise equal.
	Answers []string
	// P99 is the 99th-percentile lookup latency over the mix.
	P99 time.Duration
	// SegReads and MissDisk are the wal.seg_reads / store.miss_disk
	// counter deltas over the query phase: how often the segment tier was
	// consulted.
	SegReads, MissDisk uint64
	// Recovery is the boot-time replay summary of the capped reboot.
	Recovery wal.Recovery
}

// DiskPerQuery is the mean number of segment reads per lookup.
func (r *ResidentResult) DiskPerQuery() float64 {
	if len(r.Answers) == 0 {
		return 0
	}
	return float64(r.SegReads) / float64(len(r.Answers))
}

// Recall is the fraction of this run's answers that equal the baseline's,
// element-wise. A read-through store must score 1.0 against the unbounded
// run; anything lower means the cap changed an answer.
func (r *ResidentResult) Recall(baseline *ResidentResult) float64 {
	if len(r.Answers) == 0 || len(r.Answers) != len(baseline.Answers) {
		return 0
	}
	same := 0
	for i, a := range r.Answers {
		if a == baseline.Answers[i] {
			same++
		}
	}
	return float64(same) / float64(len(r.Answers))
}

// RunResident seeds a single durable peer with cfg.Partitions distinct
// ranges, checkpoints so the whole set lives in one sealed segment,
// crashes, and reboots with the store capped at cfg.CapPct of the set
// (read-through enabled). It then runs the seeded query mix against the
// rebooted peer and reports the answers, tail latency, and disk-read
// counters. Run it once with CapPct 0 for the baseline and compare.
func RunResident(cfg ResidentConfig) (*ResidentResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("sim: ResidentConfig.Dir required")
	}

	// Phase 1 — seed. A one-peer ring owns every identifier, so the whole
	// catalog lands on the victim's durable store.
	c, err := NewCluster(ClusterConfig{
		N:    1,
		Peer: peer.Config{Scheme: minhash.NewExactScheme()},
	})
	if err != nil {
		return nil, err
	}
	seeder := c.Peers[0]
	addr := seeder.Addr()
	lg, _, err := wal.Open(wal.Options{Dir: cfg.Dir}, seeder.Store())
	if err != nil {
		return nil, err
	}

	gen := workload.NewUniform(workload.DefaultDomainLo, workload.DefaultDomainHi, cfg.Seed+1)
	seen := make(map[string]bool, cfg.Partitions)
	catalog := make([]rangeset.Range, 0, cfg.Partitions)
	for published := 0; published < cfg.Partitions; {
		p := store.Partition{Relation: "R", Attribute: "a", Range: gen.Next(), Holder: addr}
		if seen[p.Key()] {
			continue
		}
		seen[p.Key()] = true
		catalog = append(catalog, p.Range)
		if _, err := seeder.Publish(p, nil); err != nil {
			return nil, fmt.Errorf("sim: publish %s: %w", p.Range, err)
		}
		published++
	}
	res := &ResidentResult{Held: seeder.Store().Len()}
	// Fold everything into one sealed segment, then die as on kill -9.
	if err := lg.Checkpoint(); err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	lg.Crash()

	// Phase 2 — capped reboot. Same identity on a fresh network; the
	// store is bounded and, when capped, reads through to the segment.
	if cfg.CapPct > 0 {
		res.Cap = res.Held * cfg.CapPct / 100
		if res.Cap < 1 {
			res.Cap = 1
		}
	}
	net := transport.NewMemory()
	revived, err := peer.New(addr, net, peer.Config{
		Scheme:        minhash.NewExactScheme(),
		CacheCapacity: res.Cap,
	})
	if err != nil {
		return nil, err
	}
	lg2, rec, err := wal.Open(wal.Options{Dir: cfg.Dir}, revived.Store())
	if err != nil {
		return nil, err
	}
	defer lg2.Close()
	res.Recovery = rec
	net.Register(revived.Addr(), revived.Handle)
	if err := chord.BuildStableRing([]*chord.Node{revived.Node()}); err != nil {
		return nil, err
	}
	if got := revived.Store().Len(); got != res.Held {
		return nil, fmt.Errorf("sim: reboot recovered %d of %d descriptors", got, res.Held)
	}

	// Phase 3 — the query mix, identical across runs with equal seeds.
	// Mostly probes drawn from the seeded catalog (these must hit), with
	// an absent range every eighth query (bloom filters should turn most
	// of those away before any I/O). cache=false keeps lookups read-only
	// so every run probes the same working set.
	qrng := rand.New(rand.NewSource(cfg.Seed + 2))
	qgen := workload.NewUniform(workload.DefaultDomainLo, workload.DefaultDomainHi, cfg.Seed+3)
	before := metrics.Default.Snapshot()
	lat := make([]time.Duration, 0, cfg.Queries)
	for q := 0; q < cfg.Queries; q++ {
		var probe rangeset.Range
		if q%8 == 7 {
			probe = qgen.Next()
		} else {
			probe = catalog[qrng.Intn(len(catalog))]
		}
		start := time.Now()
		lr, err := revived.Lookup("R", "a", probe, false, nil)
		lat = append(lat, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("sim: lookup %s: %w", probe, err)
		}
		res.Answers = append(res.Answers, fmt.Sprintf("%s|%.9f|%t",
			lr.Match.Partition.Key(), lr.Match.Score, lr.Found))
	}
	delta := metrics.Default.Snapshot().Sub(before)
	res.SegReads = delta.Counters["wal.seg_reads"]
	res.MissDisk = delta.Counters["store.miss_disk"]
	res.Resident = revived.Store().MemLen()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P99 = lat[len(lat)*99/100]
	return res, nil
}
