package sim

import (
	"fmt"
	"math/rand"

	"p2prange/internal/chord"
	"p2prange/internal/metrics"
	"p2prange/internal/minhash"
	"p2prange/internal/peer"
	"p2prange/internal/transport"
)

// ChurnConfig parameterizes a churn/loss availability run: a ring where
// peers crash abruptly mid-workload over a lossy network, with repair
// (stabilization) running much more slowly than query traffic.
type ChurnConfig struct {
	// N is the ring size (default 64).
	N int
	// Lookups is the number of lookups issued (default 500).
	Lookups int
	// Crashes is the number of abrupt peer failures, spread evenly across
	// the run (default N/8). Crashed peers drop off the network with no
	// handoff and no notification.
	Crashes int
	// StabilizeEvery runs one synchronous maintenance round every this
	// many lookups (default 50), so lookups race stale routing state the
	// way live traffic races background repair. Negative disables repair.
	StabilizeEvery int
	// Drop is the per-RPC probability the network loses a message.
	Drop float64
	// FaultTolerance enables the failure handling under test: transport
	// retries, suspect tracking, and successor-list rerouting. Disabled,
	// the run measures the naive baseline.
	FaultTolerance bool
	// Seed drives all randomness (crash victims, workload, faults).
	Seed int64
}

func (cfg *ChurnConfig) withDefaults() ChurnConfig {
	out := *cfg
	if out.N <= 0 {
		out.N = 64
	}
	if out.Lookups <= 0 {
		out.Lookups = 500
	}
	if out.Crashes == 0 {
		out.Crashes = out.N / 8
	}
	if out.StabilizeEvery == 0 {
		out.StabilizeEvery = 50
	}
	return out
}

// ChurnResult reports a churn run's availability.
type ChurnResult struct {
	// Lookups is the number issued; Succeeded those that resolved a live
	// owner (after the protocol's one re-resolution on a dead owner).
	Lookups   int
	Succeeded int
	// Retries, Rerouted and Failed are the run's route.* counter deltas
	// in the Default registry: transport retries, hops routed around a
	// dead node, and lookups that returned an error (cluster build and
	// stabilization included).
	Retries, Rerouted, Failed uint64
	// Injected is how many faults the network injected.
	Injected uint64
	// Survivors is the ring size at the end of the run.
	Survivors int
}

// SuccessRate returns the percentage of lookups that resolved a live owner.
func (r ChurnResult) SuccessRate() float64 {
	if r.Lookups == 0 {
		return 100
	}
	return 100 * float64(r.Succeeded) / float64(r.Lookups)
}

// RunChurn builds a ring, then interleaves abrupt crashes and a lossy
// network with a lookup workload. A lookup counts as successful only if
// it resolves to a peer that is actually alive; like the peer protocol
// (see peer.callOwner), a fault-tolerant origin that resolves a dead
// owner marks it suspect and re-resolves once before giving up.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Crashes >= cfg.N {
		return ChurnResult{}, fmt.Errorf("sim: cannot crash %d of %d peers", cfg.Crashes, cfg.N)
	}
	before := metrics.Default.Snapshot()
	var fault *transport.FaultCaller
	seq := int64(0)
	ccfg := ClusterConfig{
		N: cfg.N,
		Peer: peer.Config{
			Scheme: minhash.NewExactScheme(),
			Chord: chord.Config{
				DisableRerouting: !cfg.FaultTolerance,
			},
		},
		Host: func(_ int, hc *peer.HostConfig) {
			if fault == nil {
				fault = transport.NewFaultCaller(hc.Caller, transport.FaultConfig{
					Seed: cfg.Seed + 1, Drop: cfg.Drop,
				})
			}
			hc.Caller = fault
			if cfg.FaultTolerance {
				seq++
				hc.Caller = transport.NewRetryCaller(fault, transport.RetryConfig{
					Seed: cfg.Seed + 1 + seq,
				})
			}
		},
	}
	c, err := NewCluster(ccfg)
	if err != nil {
		return ChurnResult{}, err
	}
	live := make(map[string]bool, cfg.N)
	for _, p := range c.Peers {
		live[p.Addr()] = true
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	crashGap := cfg.Lookups / (cfg.Crashes + 1)
	if crashGap == 0 {
		crashGap = 1
	}
	crashed := 0
	res := ChurnResult{Lookups: cfg.Lookups}
	for q := 0; q < cfg.Lookups; q++ {
		if crashed < cfg.Crashes && q == (crashed+1)*crashGap {
			i := rng.Intn(len(c.Peers))
			delete(live, c.Peers[i].Addr())
			c.drop(i)
			crashed++
		}
		if cfg.StabilizeEvery > 0 && q > 0 && q%cfg.StabilizeEvery == 0 {
			c.Stabilize(1)
		}
		origin := c.RandomPeer(rng)
		id := rng.Uint32()
		owner, _, err := origin.Node().Lookup(id, nil, nil)
		ok := err == nil && live[owner.Addr]
		if !ok && err == nil && cfg.FaultTolerance {
			origin.Node().MarkSuspect(owner.ID)
			owner, _, err = origin.Node().Lookup(id, nil, nil)
			ok = err == nil && live[owner.Addr]
		}
		if ok {
			res.Succeeded++
		}
	}
	d := metrics.Default.Snapshot().Sub(before)
	res.Retries, res.Rerouted, res.Failed = d.Counters["route.retries"], d.Counters["route.rerouted"], d.Counters["route.failed_lookups"]
	res.Injected = fault.Injected()
	res.Survivors = len(c.Peers)
	return res, nil
}
