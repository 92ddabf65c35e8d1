package sim

import "testing"

// TestRunShipModes pins the ablation's shape: the push tail costs
// O(missed) records, the digest exchange carries O(store) rows no matter
// how small the gap, a push reset hands the gap to exactly one digest
// round — and every mode ends byte-identical to a local recovery of the
// owner's directory.
func TestRunShipModes(t *testing.T) {
	const base, missed = 120, 15
	run := func(mode string) *ShipResult {
		t.Helper()
		res, err := RunShip(ShipConfig{Base: base, Missed: missed, Mode: mode,
			OwnerDir: t.TempDir(), ReplicaDir: t.TempDir(), Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Identical {
			t.Fatalf("%s: replica diverged from local recovery", mode)
		}
		return res
	}

	tail := run(ShipModeTail)
	if tail.SyncRecords != missed {
		t.Fatalf("push-tail shipped %d records, want exactly the %d missed", tail.SyncRecords, missed)
	}
	if tail.DigestRows != 0 || tail.Resets != 0 {
		t.Fatalf("push-tail took a detour: rows=%d resets=%d", tail.DigestRows, tail.Resets)
	}

	dig := run(ShipModeDigest)
	if dig.DigestRows != dig.Held {
		t.Fatalf("digest carried %d rows, want the whole store (%d)", dig.DigestRows, dig.Held)
	}
	if dig.SyncRecords != missed {
		t.Fatalf("digest pushed %d descriptors, want %d", dig.SyncRecords, missed)
	}

	reset := run(ShipModeReset)
	if reset.Resets != 1 {
		t.Fatalf("push-reset mode took %d resets, want 1", reset.Resets)
	}
	if reset.DigestRows != reset.Held || reset.SyncRecords != missed {
		t.Fatalf("push-reset's digest round: rows=%d recs=%d, want %d rows and the %d missed",
			reset.DigestRows, reset.SyncRecords, reset.Held, missed)
	}
	if reset.SyncBytes <= dig.SyncBytes {
		t.Fatalf("push-reset (%dB) should cost the digest round (%dB) and more", reset.SyncBytes, dig.SyncBytes)
	}

	if tail.SyncBytes*4 >= dig.SyncBytes {
		t.Fatalf("push-tail (%dB) should be far cheaper than digest (%dB) at this store/gap ratio",
			tail.SyncBytes, dig.SyncBytes)
	}
}

// TestRunShipValidates covers the config error paths.
func TestRunShipValidates(t *testing.T) {
	if _, err := RunShip(ShipConfig{Mode: ShipModeTail}); err == nil {
		t.Fatal("missing dirs accepted")
	}
	if _, err := RunShip(ShipConfig{Mode: "warp",
		OwnerDir: t.TempDir(), ReplicaDir: t.TempDir()}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
