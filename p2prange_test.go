package p2prange

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"p2prange/internal/metrics"
	"p2prange/internal/query"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/sim"
	"p2prange/internal/store"
)

func newTestSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewDefaults(t *testing.T) {
	sys := newTestSystem(t, Config{})
	if sys.Peers() != 32 {
		t.Errorf("default peers = %d", sys.Peers())
	}
	if got := len(sys.Ring()); got != 32 {
		t.Errorf("ring size = %d", got)
	}
	if got := len(sys.Loads()); got != 32 {
		t.Errorf("loads = %d", got)
	}
}

func TestNewRangeValidation(t *testing.T) {
	if _, err := NewRange(5, 1); err == nil {
		t.Error("inverted range accepted")
	}
	r, err := NewRange(1, 5)
	if err != nil || r.Size() != 5 {
		t.Errorf("NewRange = %v, %v", r, err)
	}
}

func TestLookupCachingFlow(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 16, Measure: MatchContainment, Seed: 3})
	q, _ := NewRange(100, 200)
	if _, found, err := sys.Lookup("R", "a", q, true); err != nil || found {
		t.Fatalf("first lookup: found=%v err=%v", found, err)
	}
	m, found, err := sys.Lookup("R", "a", q, false)
	if err != nil || !found {
		t.Fatalf("repeat lookup: found=%v err=%v", found, err)
	}
	if m.Partition.Range != q || m.Score != 1 {
		t.Errorf("match = %+v", m)
	}
	// Similar range (0.95) hits too.
	q2, _ := NewRange(100, 195)
	m, found, err = sys.Lookup("R", "a", q2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !found || m.Score != 1 {
		t.Errorf("similar lookup = %+v found=%v", m, found)
	}
	if _, _, err := sys.Lookup("R", "a", Range{Lo: 5, Hi: 1}, false); err == nil {
		t.Error("invalid range accepted")
	}
}

func TestPublishFlow(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 8, Seed: 4})
	q, _ := NewRange(0, 99)
	if err := sys.Publish(PartitionInfo{Relation: "R", Attribute: "a", Range: q}); err != nil {
		t.Fatal(err)
	}
	if _, found, err := sys.Lookup("R", "a", q, false); err != nil || !found {
		t.Errorf("published partition not found: %v, %v", found, err)
	}
}

func TestSQLRequiresSchema(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 4})
	if _, err := sys.Query("SELECT * FROM Patient"); err == nil {
		t.Error("query without schema accepted")
	}
	if _, err := sys.Plan("SELECT * FROM Patient"); err == nil {
		t.Error("plan without schema accepted")
	}
	r := relation.NewRelation(&RelationSchema{Name: "X", Columns: []Column{{Name: "a", Type: relation.TInt}}})
	if err := sys.AddBase(r); err == nil {
		t.Error("AddBase without schema accepted")
	}
}

func newMedicalSystem(t *testing.T) *System {
	t.Helper()
	sys := newTestSystem(t, Config{
		Peers:   16,
		Measure: MatchContainment,
		Seed:    5,
		Schema:  relation.MedicalSchema(),
	})
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 200, Physicians: 10, Diagnoses: 500, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rels {
		if err := sys.AddBase(r); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestEndToEndSQL(t *testing.T) {
	sys := newMedicalSystem(t)
	const sql = `SELECT Prescription.prescription FROM Patient, Diagnosis, Prescription
		WHERE 30 <= age AND age <= 50 AND diagnosis = 'Glaucoma'
		AND Patient.patient_id = Diagnosis.patient_id
		AND '2000-01-01' <= date AND date <= '2002-12-31'
		AND Diagnosis.prescription_id = Prescription.prescription_id`

	res1, err := sys.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) == 0 {
		t.Fatal("paper query returned nothing")
	}
	for _, recall := range res1.ScanRecall {
		if recall != 1 {
			t.Errorf("cold run should fall back to base with recall 1, got %v", res1.ScanRecall)
		}
	}
	// Identical re-run answers from the cache with the same rows.
	res2, err := sys.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != len(res1.Rows) {
		t.Errorf("cached run returned %d rows, first run %d", len(res2.Rows), len(res1.Rows))
	}
}

func TestEndToEndSQLSimilarQueryUsesCache(t *testing.T) {
	sys := newMedicalSystem(t)
	if _, err := sys.Query("SELECT patient_id FROM Patient WHERE 30 <= age AND age <= 50"); err != nil {
		t.Fatal(err)
	}
	// A 0.95-similar selection: the cached [30,50] partition contains it.
	res, err := sys.Query("SELECT patient_id FROM Patient WHERE 30 <= age AND age <= 49")
	if err != nil {
		t.Fatal(err)
	}
	if recall := res.ScanRecall["Patient.age"]; recall != 1 {
		t.Errorf("similar query recall = %g, want 1 via cached superset", recall)
	}
	// Row correctness regardless of path: all ages within bounds.
	for _, row := range res.Rows {
		if row[0].Kind != relation.TInt {
			t.Fatalf("bad projection %v", row)
		}
	}
}

func TestPlanRendering(t *testing.T) {
	sys := newMedicalSystem(t)
	plan, err := sys.Plan("SELECT name FROM Patient WHERE 30 <= age AND age <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Patient.age in [30,50]") {
		t.Errorf("plan = %q", plan)
	}
}

func TestAddBaseUnknownRelation(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 4, Schema: relation.MedicalSchema()})
	bad := relation.NewRelation(&RelationSchema{Name: "Nope", Columns: []Column{{Name: "a", Type: relation.TInt}}})
	if err := sys.AddBase(bad); err == nil {
		t.Error("AddBase accepted a relation outside the schema")
	}
}

func TestLoadsAccumulate(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 8, Seed: 7})
	for lo := int64(0); lo < 200; lo += 20 {
		q, _ := NewRange(lo, lo+50)
		if _, _, err := sys.Lookup("R", "a", q, true); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, l := range sys.Loads() {
		total += l
	}
	// 10 distinct ranges x 5 identifiers (some may dedupe on collisions).
	if total < 40 || total > 50 {
		t.Errorf("total stored = %d, want ≈ 50", total)
	}
}

func TestChurnThroughFacade(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 8, Seed: 9})
	q, _ := NewRange(100, 200)
	if _, _, err := sys.Lookup("R", "a", q, true); err != nil {
		t.Fatal(err)
	}
	n, err := sys.Grow()
	if err != nil || n != 9 {
		t.Fatalf("Grow = %d, %v", n, err)
	}
	n, err = sys.Shrink()
	if err != nil || n != 8 {
		t.Fatalf("Shrink = %d, %v", n, err)
	}
	// The cached range survives graceful churn.
	if _, found, err := sys.Lookup("R", "a", q, false); err != nil || !found {
		t.Errorf("descriptor lost through churn: found=%v err=%v", found, err)
	}
	n, err = sys.CrashOne()
	if err != nil || n != 7 {
		t.Fatalf("CrashOne = %d, %v", n, err)
	}
	// The system still serves queries after a crash.
	if _, _, err := sys.Lookup("R", "a", q, false); err != nil {
		t.Errorf("lookup after crash: %v", err)
	}
}

func TestShrinkFloor(t *testing.T) {
	sys := newTestSystem(t, Config{Peers: 1})
	if _, err := sys.Shrink(); err == nil {
		t.Error("shrank below one peer")
	}
	if _, err := sys.CrashOne(); err == nil {
		t.Error("crashed the last peer")
	}
}

// TestSQLSourcePaths drives the branches of peer.DataSource that the
// paper query does not reach: a half-open predicate clamped to the base
// relation's domain, a padded probe, a leaf with no selection (FetchAll),
// and a system with no base and no cached match. Each query runs traced
// on a fresh System, the tree must show the branch, and the rows must
// equal query.Execute straight over the base relations — or be empty,
// typed by the schema, when there is no base to fall back to.
func TestSQLSourcePaths(t *testing.T) {
	schema := relation.MedicalSchema()
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 200, Physicians: 10, Diagnoses: 500, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ages, err := rels["Patient"].AttributeRange("age")
	if err != nil {
		t.Fatal(err)
	}
	padded := rangeset.Range{Lo: 30, Hi: 50}.Pad(0.2, ages.Lo, ages.Hi)
	for _, tc := range []struct {
		name    string
		padFrac float64
		noBase  bool
		sql     string
		shows   string // a line of the traced tree
		recall  float64
	}{
		{
			name:   "half-open range clamps to the base domain",
			sql:    "SELECT patient_id, age FROM Patient WHERE age >= 65",
			shows:  fmt.Sprintf("lookup Patient.age [65,%d]", ages.Hi),
			recall: 1,
		},
		{
			name:    "padding widens the probe",
			padFrac: 0.2,
			sql:     "SELECT patient_id, name FROM Patient WHERE 30 <= age AND age <= 50",
			shows:   "pad: [30,50] -> " + padded.String(),
			recall:  1,
		},
		{
			name:  "no selection fetches the whole base relation",
			sql:   "SELECT name, specialization FROM Physician",
			shows: fmt.Sprintf("fullscan: Physician (%d tuple(s))", len(rels["Physician"].Tuples)),
		},
		{
			name:   "no base and no match answers empty",
			noBase: true,
			sql:    "SELECT patient_id, name FROM Patient WHERE 30 <= age AND age <= 50",
			shows:  "answer: recall=0.000 from cache",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newTestSystem(t, Config{Peers: 8, Seed: 5, Schema: schema, PadFrac: tc.padFrac})
			if !tc.noBase {
				for _, r := range rels {
					if err := sys.AddBase(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			plan, err := buildPlan(schema, tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			want, err := query.Execute(plan, schema, query.NewRelationSource(rels))
			if err != nil {
				t.Fatal(err)
			}
			if tc.noBase {
				want.Rows = nil
			} else if len(want.Rows) == 0 {
				t.Fatal("reference answer is empty; the case tests nothing")
			}
			// The cold run falls back to the base and caches what it
			// computed; the warm run answers from that cache.
			for _, run := range []string{"cold", "warm"} {
				res, tr, err := sys.QueryTraced(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				if tree := tr.Tree(false); run == "cold" && !strings.Contains(tree, tc.shows) {
					t.Errorf("trace lacks %q:\n%s", tc.shows, tree)
				}
				for leaf, got := range res.ScanRecall {
					if got != tc.recall {
						t.Errorf("%s run: %s recall = %g, want %g", run, leaf, got, tc.recall)
					}
				}
				if !reflect.DeepEqual(res.Columns, want.Columns) {
					t.Errorf("%s run: columns = %v, want %v", run, res.Columns, want.Columns)
				}
				if got, exp := sortedRows(res.Rows), sortedRows(want.Rows); !reflect.DeepEqual(got, exp) {
					t.Errorf("%s run: %d row(s), want %d:\ngot  %v\nwant %v", run, len(got), len(exp), got, exp)
				}
			}
			auditHolders(t, sys.cluster)
		})
	}
}

// TestCoveredHitPublishesNothing repeats a select that a cached wider
// partition covers without matching exactly. Only a fallback to the base
// materializes data at the querier, so only a fallback may publish it as
// a holder: a covered answer must store no descriptor, and a repeat must
// never find a descriptor it cannot fetch and fall back again.
func TestCoveredHitPublishesNothing(t *testing.T) {
	schema := relation.MedicalSchema()
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 200, Physicians: 10, Diagnoses: 500, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := newTestSystem(t, Config{Peers: 16, Measure: MatchContainment, Schema: schema})
	for _, r := range rels {
		if err := sys.AddBase(r); err != nil {
			t.Fatal(err)
		}
	}
	run := func(lo, hi int) (fallbacks, stores uint64) {
		t.Helper()
		sql := fmt.Sprintf("SELECT patient_id, age FROM Patient WHERE %d <= age AND age <= %d", lo, hi)
		plan, err := buildPlan(schema, sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := query.Execute(plan, schema, query.NewRelationSource(rels))
		if err != nil {
			t.Fatal(err)
		}
		before := metrics.Default.Snapshot()
		res, err := sys.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := sortedRows(res.Rows), sortedRows(want.Rows); !reflect.DeepEqual(got, exp) {
			t.Errorf("[%d,%d]: %d row(s), want %d", lo, hi, len(got), len(exp))
		}
		d := metrics.Default.Snapshot().Sub(before)
		return d.Counters["peer.fallbacks"], d.Counters["peer.stores"]
	}
	if f, s := run(30, 50); f != 1 || s != 5 {
		t.Errorf("cold [30,50]: %d fallback(s), %d store(s); want 1 and one per identifier (5)", f, s)
	}
	for i := 1; i <= 3; i++ {
		if f, s := run(30, 49); f != 0 || s != 0 {
			t.Errorf("covered [30,49] #%d: %d fallback(s), %d store(s); want none", i, f, s)
		}
	}
	auditHolders(t, sys.cluster)
}

// auditHolders walks every bucket of the ring and fetches each
// descriptor from the holder it names: a peer serves what it advertises.
// Descriptors whose holder has left the ring are skipped.
func auditHolders(t *testing.T, c *sim.Cluster) {
	t.Helper()
	live := make(map[string]bool, len(c.Peers))
	for _, h := range c.Peers {
		live[h.Addr()] = true
	}
	fetcher := c.Peers[0]
	for _, h := range c.Peers {
		for _, id := range h.Store().IDs() {
			for _, d := range h.Store().Bucket(id) {
				if !live[d.Holder] {
					continue
				}
				if _, err := fetcher.FetchData(store.Match{Partition: d}, nil); err != nil {
					t.Errorf("bucket %08x at %s: %s: %v", id, h.Addr(), d, err)
				}
			}
		}
	}
}

// sortedRows renders rows as sorted text, for order-free comparison.
func sortedRows(rows []relation.Tuple) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, fmt.Sprint(r))
	}
	sort.Strings(out)
	return out
}
