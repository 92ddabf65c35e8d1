package sim

import "testing"

// TestChurnResilience is the acceptance experiment for the fault-model
// work: under abrupt crashes and 2% message loss, retries plus
// successor-list rerouting must keep lookup availability at ≥99%, while
// the same workload with fault tolerance disabled measurably degrades.
func TestChurnResilience(t *testing.T) {
	cfg := ChurnConfig{N: 64, Lookups: 500, Drop: 0.02, Seed: 1}

	cfg.FaultTolerance = true
	on, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultTolerance = false
	off, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fault tolerance on:  %.1f%% success, %d retries, %d reroutes, %d faults injected",
		on.SuccessRate(), on.Retries, on.Rerouted, on.Injected)
	t.Logf("fault tolerance off: %.1f%% success, %d failed lookups, %d faults injected",
		off.SuccessRate(), off.Failed, off.Injected)

	if got := on.SuccessRate(); got < 99 {
		t.Errorf("fault-tolerant success rate %.1f%%, want >= 99%%", got)
	}
	if on.Retries == 0 {
		t.Error("no transport retries happened — the fault injection is not biting")
	}
	if on.Rerouted == 0 {
		t.Error("no reroutes happened — crashes did not exercise rerouting")
	}
	if on.Injected == 0 || off.Injected == 0 {
		t.Error("no faults injected")
	}
	if off.SuccessRate() >= on.SuccessRate() {
		t.Errorf("disabling fault tolerance did not hurt: %.1f%% vs %.1f%%",
			off.SuccessRate(), on.SuccessRate())
	}
	if off.SuccessRate() > 97 {
		t.Errorf("baseline success rate %.1f%% suspiciously high; the scenario lost its teeth", off.SuccessRate())
	}
	// Same seed, two runs: the injection and workload must be deterministic.
	cfg.FaultTolerance = true
	again, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != on {
		t.Errorf("same-seed rerun diverged: %+v vs %+v", again, on)
	}
}

// TestClusterWrapCaller checks the caller-wrapping hook
// (ClusterConfig.Host) is applied: the churn run's fault and retry
// callers carry the cluster's traffic.
func TestClusterWrapCaller(t *testing.T) {
	res, err := RunChurn(ChurnConfig{N: 16, Lookups: 50, Crashes: 1, Seed: 5, FaultTolerance: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 15 {
		t.Errorf("survivors = %d, want 15", res.Survivors)
	}
	if res.Lookups != 50 {
		t.Errorf("lookups = %d, want 50", res.Lookups)
	}
}
