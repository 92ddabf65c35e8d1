package p2prange

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2prange/internal/chord"
	"p2prange/internal/metrics"
	"p2prange/internal/peer"
	"p2prange/internal/query"
	"p2prange/internal/relation"
	"p2prange/internal/transport"
	"p2prange/internal/wal"
)

// liveRing starts n real TCP peers on loopback with fast stabilization
// and waits for convergence.
func liveRing(t *testing.T, n int) []*LivePeer {
	return liveRingWith(t, n, nil)
}

// liveRingWith is liveRing with a hook that adjusts the shared config
// (replication, load awareness) before any peer starts.
func liveRingWith(t *testing.T, n int, adjust func(*LiveConfig)) []*LivePeer {
	t.Helper()
	cfg := LiveConfig{
		K: 4, L: 3, SchemeSeed: 77,
		Measure: MatchContainment,
		Schema:  relation.MedicalSchema(),
		Stabilize: chord.MaintainerConfig{
			StabilizeEvery:        20 * time.Millisecond,
			FixFingersEvery:       5 * time.Millisecond,
			CheckPredecessorEvery: 50 * time.Millisecond,
		},
	}
	if adjust != nil {
		adjust(&cfg)
	}
	boot, err := StartPeer("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	peers := []*LivePeer{boot}
	t.Cleanup(boot.Close)
	for i := 1; i < n; i++ {
		p, err := StartPeer("127.0.0.1:0", boot.Addr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		peers = append(peers, p)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, p := range peers {
		if !p.WaitStable(time.Until(deadline)) {
			t.Fatalf("peer %s did not stabilize", p.Ref())
		}
	}
	// Give fix-fingers a moment to cycle after the last join.
	time.Sleep(300 * time.Millisecond)
	return peers
}

// TestLiveLookupAndFetch runs a lookup and a fetch over real TCP and
// checks the fetched tuples themselves against SelectRange, so a wire
// codec that garbles a value's kind, integer or string fails here. The
// replicated, load-aware case also sends LoadReq/LoadResp over TCP for
// every probe and checks the selection used their answers.
func TestLiveLookupAndFetch(t *testing.T) {
	cases := []struct {
		name   string
		adjust func(*LiveConfig)
	}{
		{"plain", nil},
		{"replicated-load-aware", func(c *LiveConfig) { c.Replicas, c.LoadAware = 2, true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peers := liveRingWith(t, 5, tc.adjust)
			loadAware := tc.adjust != nil
			selections := metrics.Default.Counter("replica.selections")
			fallbacks := metrics.Default.Counter("replica.fallbacks")
			selBefore, fbBefore := selections.Value(), fallbacks.Value()

			rels, err := relation.GenerateMedical(relation.MedicalConfig{
				Patients: 100, Physicians: 5, Diagnoses: 100, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			holder := peers[2]
			rg, _ := NewRange(30, 50)
			if err := holder.AddPartition(rels["Patient"], "age", rg); err != nil {
				t.Fatal(err)
			}
			if err := holder.Publish(holder.Descriptor("Patient", "age", rg)); err != nil {
				t.Fatal(err)
			}

			querier := peers[4]
			similar, _ := NewRange(30, 49)
			m, found, err := querier.Lookup("Patient", "age", similar, false)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatal("similar range not found over TCP")
			}
			if m.Partition.Holder != holder.Addr() {
				t.Errorf("holder = %s, want %s", m.Partition.Holder, holder.Addr())
			}
			data, err := querier.Fetch(m)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := rels["Patient"].SelectRange("age", rg)
			if data.Schema.Name != want.Schema.Name {
				t.Errorf("fetched relation %q, want %q", data.Schema.Name, want.Schema.Name)
			}
			if data.Len() == 0 || !reflect.DeepEqual(data.Tuples, want.Tuples) {
				t.Errorf("fetched tuples differ from SelectRange:\ngot  %v\nwant %v", data.Tuples, want.Tuples)
			}

			if loadAware {
				if fallbacks.Value() != fbBefore {
					t.Errorf("%d load-aware probe(s) fell back to the owner path", fallbacks.Value()-fbBefore)
				}
				if selections.Value() == selBefore {
					t.Error("no probe was routed by a LoadResp")
				}
			}
		})
	}
}

func TestLiveLeaveHandsOffBuckets(t *testing.T) {
	peers := liveRing(t, 4)
	rg, _ := NewRange(10, 90)
	if _, _, err := peers[0].Lookup("R", "a", rg, true); err != nil {
		t.Fatal(err)
	}
	total := func(ps []*LivePeer) int {
		n := 0
		for _, p := range ps {
			n += p.StoredPartitions()
		}
		return n
	}
	before := total(peers)
	if before == 0 {
		t.Fatal("nothing stored")
	}
	// Leave with whichever peer holds descriptors (or any peer).
	leaver := peers[1]
	rest := []*LivePeer{peers[0], peers[2], peers[3]}
	if err := leaver.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := total(rest); got != before {
		t.Errorf("descriptors after leave = %d, want %d (handoff lost data)", got, before)
	}
	// The departed descriptors remain findable once the ring repairs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, found, err := rest[0].Lookup("R", "a", rg, false)
		if err == nil && found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("descriptor unreachable after leave: found=%v err=%v", found, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func TestLiveReclaimArc(t *testing.T) {
	cfg := LiveConfig{
		K: 4, L: 3, SchemeSeed: 78,
		Stabilize: chord.MaintainerConfig{
			StabilizeEvery:        20 * time.Millisecond,
			FixFingersEvery:       5 * time.Millisecond,
			CheckPredecessorEvery: 50 * time.Millisecond,
		},
	}
	boot, err := StartPeer("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	// Store everything at the bootstrap (one-node ring owns all).
	rg, _ := NewRange(5, 55)
	if _, _, err := boot.Lookup("R", "a", rg, true); err != nil {
		t.Fatal(err)
	}
	if boot.StoredPartitions() == 0 {
		t.Fatal("bootstrap stored nothing")
	}
	// A joiner reclaims its arc; total descriptors are conserved.
	joiner, err := StartPeer("127.0.0.1:0", boot.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if !joiner.WaitStable(10*time.Second) || !boot.WaitStable(10*time.Second) {
		t.Fatal("two-node ring did not stabilize")
	}
	before := boot.StoredPartitions() + joiner.StoredPartitions()
	if err := joiner.ReclaimArc(); err != nil {
		t.Fatal(err)
	}
	after := boot.StoredPartitions() + joiner.StoredPartitions()
	if after != before {
		t.Errorf("reclaim changed descriptor count %d -> %d", before, after)
	}
	// Lookups still find the range from either peer.
	for _, p := range []*LivePeer{boot, joiner} {
		if _, found, err := p.Lookup("R", "a", rg, false); err != nil || !found {
			t.Errorf("lookup from %s after reclaim: found=%v err=%v", p.Ref(), found, err)
		}
	}
}

func TestSingletonPeerIsStable(t *testing.T) {
	// A lone bootstrap peer is the whole ring: it answers lookups and
	// must report ready (the stabilize protocol never self-notifies, so
	// it will never gain a predecessor — /healthz would 503 forever).
	boot, err := StartPeer("127.0.0.1:0", "", LiveConfig{
		K: 4, L: 3, SchemeSeed: 77,
		Measure: MatchContainment,
		Schema:  relation.MedicalSchema(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(boot.Close)
	if !boot.Stable() {
		t.Error("singleton peer reports not stable")
	}
	if st := boot.Status(); !st.Stable {
		t.Errorf("singleton /status not ready: %+v", st)
	}
}

// TestLiveLookupFailsFastOnBadRange pins that Lookup retries only what
// a repaired ring could fix: a range the protocol refuses to hash comes
// back at once, not after the routing-retry backoff (about 8 s).
func TestLiveLookupFailsFastOnBadRange(t *testing.T) {
	boot, err := StartPeer("127.0.0.1:0", "", LiveConfig{
		K: 4, L: 3, SchemeSeed: 77,
		Schema: relation.MedicalSchema(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(boot.Close)
	for _, q := range []Range{{Lo: 5, Hi: 1}, {Lo: 0, Hi: peer.MaxRangeSize}} {
		start := time.Now()
		_, _, err := boot.Lookup("Patient", "age", q, false)
		if took := time.Since(start); !errors.Is(err, peer.ErrBadRange) || took > 100*time.Millisecond {
			t.Errorf("Lookup(%s) = %v after %v, want peer.ErrBadRange at once", q, err, took)
		}
	}
}

// TestStartPeerRejectsUnknownCodec pins LiveConfig.Codec validation:
// there is one wire protocol, so any name but "" or "binary" — the old
// "gob" included — is an error instead of silently running binary.
func TestStartPeerRejectsUnknownCodec(t *testing.T) {
	for _, codec := range []string{"gob", "bogus"} {
		p, err := StartPeer("127.0.0.1:0", "", LiveConfig{Codec: codec})
		if !errors.Is(err, ErrUnknownCodec) {
			if p != nil {
				p.Close()
			}
			t.Errorf("Codec %q: StartPeer err = %v, want ErrUnknownCodec", codec, err)
		}
	}
	p, err := StartPeer("127.0.0.1:0", "", LiveConfig{Codec: transport.CodecBinary})
	if err != nil {
		t.Fatalf("Codec %q rejected: %v", transport.CodecBinary, err)
	}
	p.Close()
}

// TestLiveBackupTo drives LiveConfig.BackupTo on a one-peer ring: Close
// checkpoints the WAL into a sealed segment and returns with that segment
// mirrored, and a peer booted from a directory restored out of the
// backup holds every descriptor the first one stored.
func TestLiveBackupTo(t *testing.T) {
	dir, bak := t.TempDir(), t.TempDir()
	cfg := LiveConfig{K: 4, L: 3, SchemeSeed: 77, DataDir: dir, BackupTo: bak}
	lp, err := StartPeer("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := lp.Publish(PartitionInfo{Relation: "R", Attribute: "a", Range: Range{Lo: 10 * i, Hi: 10*i + 5}}); err != nil {
			t.Fatal(err)
		}
	}
	stored := lp.StoredPartitions()
	lp.Close()
	if segs, _ := filepath.Glob(filepath.Join(bak, "seg-*.seg")); len(segs) != 1 {
		t.Fatalf("backup dir holds segments %v after Close, want exactly one", segs)
	}

	restored := t.TempDir()
	if _, _, err := wal.RestoreSegment(bak, restored); err != nil {
		t.Fatal(err)
	}
	cfg.DataDir, cfg.BackupTo = restored, ""
	lp2, err := StartPeer("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp2.Close()
	if got := lp2.StoredPartitions(); got != stored || stored == 0 {
		t.Errorf("peer restored from the backup holds %d descriptors, want %d", got, stored)
	}
}

// TestLiveConcurrentJoinsShareOneBase matches the benchmark's SQL shape:
// eight live peers register the same base relation objects, then all of
// them join Patient ranges with the whole Diagnosis relation at once,
// through the DHT, the shared join index and the shared base snapshot.
// Every answer must equal the reference. (The peers' RPCs order most of
// their work, so TestConcurrentJoinsShareOneBuildIndex in internal/query
// is the one that lets -race see the index build itself contended.)
func TestLiveConcurrentJoinsShareOneBase(t *testing.T) {
	peers := liveRing(t, 8)
	gen := func() map[string]*relation.Relation {
		rels, err := relation.GenerateMedical(relation.MedicalConfig{
			Patients: 300, Physicians: 10, Diagnoses: 300, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rels
	}
	// The reference runs over its own copy, so it cannot build the
	// shared relation's index before the peers race for it.
	shared, ref := gen(), gen()
	for _, p := range peers {
		for _, r := range shared {
			if err := p.AddBase(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	schema := relation.MedicalSchema()
	var sqls []string
	var want [][]string
	for _, ages := range [][2]int{{30, 50}, {30, 49}, {20, 35}, {60, 80}} {
		sql := fmt.Sprintf("SELECT Patient.name, Diagnosis.diagnosis FROM Patient, Diagnosis "+
			"WHERE %d <= age AND age <= %d AND Patient.patient_id = Diagnosis.patient_id", ages[0], ages[1])
		plan, err := buildPlan(schema, sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Execute(plan, schema, query.NewRelationSource(ref))
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("reference %q: %d row(s), %v", sql, len(res.Rows), err)
		}
		sqls = append(sqls, sql)
		want = append(want, sortedRows(res.Rows))
	}
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range sqls {
				q := (i + k) % len(sqls)
				res, err := p.Query(sqls[q])
				if err != nil {
					t.Errorf("peer %d: %v", i, err)
					return
				}
				if got := sortedRows(res.Rows); !reflect.DeepEqual(got, want[q]) {
					t.Errorf("peer %d, query %d: %d row(s), want %d", i, q, len(got), len(want[q]))
				}
			}
		}()
	}
	wg.Wait()
}
