package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestQuickFigures is the reduced-scale figure gate: `rangebench -fig all
// -quick` must print testdata/quick.golden in every cell that does not
// measure wall time. A change to the protocol, the hashing, the ring or
// the experiment drivers that moves any figure fails here.
func TestQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at quick scale")
	}
	checkFigures(t, "testdata/quick.golden", "-fig", "all", "-quick")
}

// checkFigures runs rangebench with args and compares its masked output
// with the masked golden file.
func checkFigures(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("rangebench %s exited %d", strings.Join(args, " "), code)
	}
	w, g := strings.Split(mask(string(want)), "\n"), strings.Split(mask(out.String()), "\n")
	bad := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Errorf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
			if bad++; bad == 10 {
				t.Fatalf("more differences follow; the full output:\n%s", out.String())
			}
		}
	}
}

// mask blanks the cells that measure wall time, so two runs of one build
// compare equal: every "(id in …)" line, every Fig. 5 column but size,
// and the churn table's recovery and p99 columns. Runs of spaces
// collapse to one, because a timing cell's width shifts the alignment of
// its whole table.
func mask(out string) string {
	// Per timed table: its header's first cell, and the columns holding
	// wall time (nil: all but the first).
	timed := map[string]struct {
		first string
		cols  []string
	}{
		"fig5:":  {"size", nil},
		"churn:": {"peers", []string{"recovery", "p99"}},
	}
	var b strings.Builder
	var section string
	var cols map[int]bool // indexes of masked cells in the current table
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "==":
			section, cols = f[1], nil
		case len(f) == 3 && strings.HasPrefix(f[0], "(") && f[1] == "in":
			f[2] = "…)"
		case cols != nil:
			for i := range f {
				if cols[i] {
					f[i] = "…"
				}
			}
		case len(f) > 0 && f[0] == timed[section].first:
			cols = map[int]bool{}
			for i, name := range f {
				cols[i] = timed[section].cols == nil && i > 0 || slices.Contains(timed[section].cols, name)
			}
		}
		b.WriteString(strings.Join(f, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMaskHidesOnlyTiming checks the mask itself: two outputs that differ
// only in wall time compare equal, and a changed figure cell does not.
func TestMaskHidesOnlyTiming(t *testing.T) {
	run1 := `== fig5: hash family cost ==
size  linear  min-wise-speedup
  10  0.0040            258.8x
   (fig5 in 152ms)

== churn: restart and resident rows; recovery of the owner ==
peers  mode         lost  recovery  recall%    p99
   16  restart+wal     0     600µs        -      -
    1  resident-10%    -    1.88ms    100.0   73µs
   (churn in 408ms)
`
	run2 := strings.NewReplacer("0.0040", "0.0075", "258.8x", "1113.6x", "152ms", "208ms",
		"600µs", "1.79ms", "1.88ms", "370µs", "73µs", "63µs", "408ms", "346ms").Replace(run1)
	if mask(run1) != mask(run2) {
		t.Errorf("timing-only difference survives the mask:\n%s\nvs\n%s", mask(run1), mask(run2))
	}
	for _, cell := range []string{"  10  ", "100.0", "    0  "} {
		moved := strings.Replace(run1, cell, strings.Replace(cell, "0", "1", 1), 1)
		if mask(run1) == mask(moved) {
			t.Errorf("mask hides a figure cell %q", cell)
		}
	}
}
