package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// runQuick executes a registered experiment at quick scale.
func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	d, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	table, err := d(QuickDefaults())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if table.ID == "" || table.Title == "" || len(table.Columns) == 0 || len(table.Rows) == 0 {
		t.Fatalf("%s: incomplete table %+v", id, table)
	}
	for _, row := range table.Rows {
		if len(row) != len(table.Columns) {
			t.Fatalf("%s: ragged row %v vs columns %v", id, row, table.Columns)
		}
	}
	return table
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"5", "6a", "6b", "7", "8", "9", "10", "11a", "11b", "12a", "12b",
		"kl", "peeridx", "workloads", "exact", "padding", "flood", "dht", "capacity", "vnodes", "churn",
		"load",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
	// Lookup accepts the figN prefix form.
	if _, ok := Lookup("fig6a"); !ok {
		t.Error("fig-prefixed lookup failed")
	}
}

func cell(t *testing.T, table *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(table.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %v", table.ID, row, col, err)
	}
	return v
}

func TestFig5Shape(t *testing.T) {
	table := runQuick(t, "5")
	// Columns: size, linear, linear-range, approx, approx-range, min-wise,
	// min-wise-range, speedup. Naive hash time must grow with range size,
	// the family ordering must hold at the largest size, and the
	// range-efficient signer must beat the naive path for the expensive
	// families.
	last := len(table.Rows) - 1
	linear, approx, minwise := cell(t, table, last, 1), cell(t, table, last, 3), cell(t, table, last, 5)
	if !(linear < approx && approx < minwise) {
		t.Errorf("family ordering violated: linear=%g approx=%g minwise=%g", linear, approx, minwise)
	}
	if first := cell(t, table, 0, 5); first >= minwise {
		t.Errorf("min-wise time did not grow with range size: %g -> %g", first, minwise)
	}
	if ranged := cell(t, table, last, 6); ranged >= minwise {
		t.Errorf("range-efficient min-wise (%g) not faster than naive (%g)", ranged, minwise)
	}
}

func TestFig6and7Histograms(t *testing.T) {
	for _, id := range []string{"6a", "6b", "7"} {
		table := runQuick(t, id)
		if len(table.Rows) != 10 {
			t.Errorf("%s: %d bins, want 10", id, len(table.Rows))
		}
		var sum float64
		for i := range table.Rows {
			sum += cell(t, table, i, 1)
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s: histogram sums to %g%%", id, sum)
		}
	}
}

func TestFig7LinearIsExactOrNothing(t *testing.T) {
	table := runQuick(t, "7")
	// Linear permutations: mass concentrates in the bottom and top bins
	// (paper Fig. 7); mid bins are (near) empty.
	var mid float64
	for i := 2; i <= 7; i++ {
		mid += cell(t, table, i, 1)
	}
	if mid > 10 {
		t.Errorf("linear mid-bin mass = %g%%, want near 0", mid)
	}
}

func TestFig8SurvivalShape(t *testing.T) {
	table := runQuick(t, "8")
	// Each family column is non-decreasing as the threshold drops and
	// ends at 100%.
	for col := 1; col <= 3; col++ {
		prev := -1.0
		for rowIdx := range table.Rows {
			v := cell(t, table, rowIdx, col)
			if v < prev-1e-9 {
				t.Fatalf("col %d not monotone at row %d", col, rowIdx)
			}
			prev = v
		}
		if last := cell(t, table, len(table.Rows)-1, col); last != 100 {
			t.Errorf("col %d survival ends at %g", col, last)
		}
	}
}

func TestFig9ContainmentDominates(t *testing.T) {
	table := runQuick(t, "9")
	// At the fully-answered threshold, containment matching beats
	// Jaccard matching (the paper: ~35% -> ~60%).
	con, jac := cell(t, table, 0, 1), cell(t, table, 0, 2)
	if con <= jac {
		t.Errorf("containment %.1f%% <= jaccard %.1f%% at full recall", con, jac)
	}
}

func TestFig10PaddingRaisesFullRecall(t *testing.T) {
	table := runQuick(t, "10")
	padded, plain := cell(t, table, 0, 1), cell(t, table, 0, 2)
	if padded <= plain {
		t.Errorf("padding %.1f%% <= no padding %.1f%% at full recall", padded, plain)
	}
}

func TestFig11LoadShapes(t *testing.T) {
	a := runQuick(t, "11a")
	// Mean load decreases as peers increase.
	if m0, m1 := cell(t, a, 0, 1), cell(t, a, len(a.Rows)-1, 1); m1 >= m0 {
		t.Errorf("mean load did not fall with more peers: %g -> %g", m0, m1)
	}
	b := runQuick(t, "11b")
	// Mean load grows with stored partitions at fixed N.
	if m0, m1 := cell(t, b, 0, 1), cell(t, b, len(b.Rows)-1, 1); m1 <= m0 {
		t.Errorf("mean load did not grow with stored partitions: %g -> %g", m0, m1)
	}
	for _, table := range []*Table{a, b} {
		for i := range table.Rows {
			mean, p99 := cell(t, table, i, 1), cell(t, table, i, 3)
			if p99 < mean {
				t.Errorf("%s row %d: p99 %g < mean %g", table.ID, i, p99, mean)
			}
		}
	}
}

func TestFig12PathLengths(t *testing.T) {
	a := runQuick(t, "12a")
	// Mean grows with N and stays within [1, log2 N].
	prev := 0.0
	for i := range a.Rows {
		mean := cell(t, a, i, 1)
		if mean < prev {
			t.Errorf("mean path length fell as N grew")
		}
		prev = mean
	}
	b := runQuick(t, "12b")
	var sum float64
	for i := range b.Rows {
		sum += cell(t, b, i, 1)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("path PDF sums to %g", sum)
	}
}

func TestAblations(t *testing.T) {
	runQuick(t, "kl")
	runQuick(t, "peeridx")
	runQuick(t, "workloads")
	runQuick(t, "padding")
}

func TestBaselineExactShape(t *testing.T) {
	table := runQuick(t, "exact")
	// Exact-key caching matches (nearly) nothing on a ~0.2%-repetition
	// workload; LSH matches most queries.
	exact, lsh := cell(t, table, 0, 1), cell(t, table, 1, 1)
	if exact > 5 {
		t.Errorf("exact-key matched %.1f%%, want ≈ 0", exact)
	}
	if lsh < 30 {
		t.Errorf("LSH matched %.1f%%, want well above exact", lsh)
	}
}

func TestBaselineFloodShape(t *testing.T) {
	table := runQuick(t, "flood")
	// Rows: flood TTL=2, TTL=4, TTL=8, LSH+Chord. Flood messages grow
	// with TTL; full-network flooding costs far more than the DHT.
	m2 := cell(t, table, 0, 3)
	m8 := cell(t, table, 2, 3)
	dht := cell(t, table, 3, 3)
	if m8 < m2 {
		t.Errorf("flood messages fell with TTL: %g -> %g", m2, m8)
	}
	if dht >= m8 {
		t.Errorf("DHT messages (%g) should undercut whole-network flooding (%g)", dht, m8)
	}
}

func TestCompareDHTsShape(t *testing.T) {
	table := runQuick(t, "dht")
	for i := range table.Rows {
		chord := cell(t, table, i, 1)
		can2 := cell(t, table, i, 3)
		can3 := cell(t, table, i, 5)
		for _, v := range []float64{chord, can2, can3} {
			if v <= 0 || v > 50 {
				t.Fatalf("row %d: implausible mean path length %g", i, v)
			}
		}
	}
	// Both substrates' means grow with N.
	if len(table.Rows) >= 2 {
		if cell(t, table, 1, 1) < cell(t, table, 0, 1)-0.5 {
			t.Error("chord mean fell sharply as N grew")
		}
	}
}

func TestCapacityShape(t *testing.T) {
	table := runQuick(t, "capacity")
	// Stored totals fall as capacity shrinks; recall degrades gracefully.
	unbounded := cell(t, table, 0, 1)
	tightest := cell(t, table, len(table.Rows)-1, 1)
	if tightest >= unbounded {
		t.Errorf("bounded caches stored %g, unbounded %g", tightest, unbounded)
	}
	ubRecall := cell(t, table, 0, 3)
	tightRecall := cell(t, table, len(table.Rows)-1, 3)
	if tightRecall > ubRecall+1e-9 {
		t.Errorf("tighter cache beat unbounded recall: %g > %g", tightRecall, ubRecall)
	}
}

func TestVirtualNodesShape(t *testing.T) {
	table := runQuick(t, "vnodes")
	// The 1st percentile (emptiest physical peer) rises with more virtual
	// nodes — the tail-taming effect.
	first := cell(t, table, 0, 2)
	last := cell(t, table, len(table.Rows)-1, 2)
	if last < first {
		t.Errorf("p1 fell with more virtual nodes: %g -> %g", first, last)
	}
	// Mean is invariant (same descriptors, same physical peers).
	if m0, m3 := cell(t, table, 0, 1), cell(t, table, len(table.Rows)-1, 1); m0 != m3 {
		t.Errorf("mean changed with virtual nodes: %g vs %g", m0, m3)
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		ID: "x", Title: "T", Columns: []string{"a", "bb"},
		Notes: "note",
	}
	table.AddRow("1", "2")
	var sb strings.Builder
	if _, err := table.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"== x: T ==", "note", "a", "bb"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, out)
		}
	}
}

func TestLoadFigShape(t *testing.T) {
	table := runQuick(t, "load")
	if len(table.Rows) != 3 {
		t.Fatalf("load has %d rows, want 3", len(table.Rows))
	}
	// Load-aware replication must cut the imbalance (max/mean, col 3)
	// versus the single-copy baseline and keep success (col 4) high.
	base, balanced := cell(t, table, 0, 3), cell(t, table, 2, 3)
	if balanced >= base {
		t.Errorf("load-aware imbalance %g not below baseline %g", balanced, base)
	}
	if s := cell(t, table, 2, 4); s < 99 {
		t.Errorf("load-aware success %g%%, want >= 99%%", s)
	}
	// The quick-scale run is deterministic: pin its exact rows, so a
	// change to replica selection or placement that moves any load,
	// success or repair figure shows up here.
	want := [][]string{
		{"R=1 (paper)", "224", "42.8", "5.24", "99.67", "0"},
		{"R=3", "224", "42.8", "5.24", "100.00", "17"},
		{"R=3 load-aware", "65", "40.2", "1.62", "100.00", "16"},
	}
	if !reflect.DeepEqual(table.Rows, want) {
		t.Errorf("load rows changed:\ngot  %q\nwant %q", table.Rows, want)
	}
}
