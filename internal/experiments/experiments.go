// Package experiments regenerates every table and figure of the paper's
// evaluation (Figs. 5-12) plus the ablations DESIGN.md calls out. Each
// driver returns a Table whose rows mirror the series the paper plots;
// cmd/rangebench prints them and bench_test.go wraps them in testing.B
// benchmarks.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Params scales an experiment run. The zero value plus FullDefaults()
// reproduces the paper's parameters; QuickDefaults() is a fast smoke
// configuration for tests.
type Params struct {
	// Seed drives all randomness (workloads, key material, peer choice).
	Seed int64
	// Queries is the quality-run workload size (paper: 10000).
	Queries int
	// ClusterN is the quality-run cluster size.
	ClusterN int
	// Unique is the number of unique partitions in scalability runs
	// (paper: 10000, stored under 5 identifiers each).
	Unique int
	// Ns is the ring-size sweep for Figs. 11(a)/12(a)
	// (paper: 100..5000).
	Ns []int
	// ScaleN is the fixed ring size of Figs. 11(b)/12(b) (paper: 1000).
	ScaleN int
	// StoredSweep is the Fig. 11(b) sweep of unique-partition counts.
	StoredSweep []int
	// TimingSizes is the Fig. 5 range-size sweep.
	TimingSizes []int
	// TimingReps is how many ranges are timed per size.
	TimingReps int
	// SigCache bounds each peer's signature cache in quality runs
	// (rangebench -sigcache); 0 disables caching.
	SigCache int
	// Workload names the query-distribution preset for quality runs
	// (rangebench -workload): "uniform" (default), "zipf", "clustered".
	Workload string
}

// FullDefaults returns the paper's parameters.
func FullDefaults() Params {
	return Params{
		Seed:        42,
		Queries:     10000,
		ClusterN:    64,
		Unique:      10000,
		Ns:          []int{100, 250, 500, 1000, 2000, 5000},
		ScaleN:      1000,
		StoredSweep: []int{7000, 14000, 21000, 28000, 36000},
		TimingSizes: []int{10, 50, 100, 200, 400, 600, 800, 1000, 1200, 1500},
		TimingReps:  5,
	}
}

// QuickDefaults returns a configuration small enough for unit tests while
// exercising every code path.
func QuickDefaults() Params {
	return Params{
		Seed:        42,
		Queries:     600,
		ClusterN:    16,
		Unique:      400,
		Ns:          []int{25, 50},
		ScaleN:      50,
		StoredSweep: []int{200, 400},
		TimingSizes: []int{10, 100},
		TimingReps:  2,
	}
}

// Table is one reproduced figure or table: a title, column headers, and
// formatted rows, with notes recording workload parameters.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(&b, "   %s\n", t.Notes)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteCSV renders the table as CSV (RFC 4180 via encoding/csv), with the
// id and title as a comment-style first record for traceability.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"# " + t.ID}, t.Title)); err != nil {
		return err
	}
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Driver runs one experiment.
type Driver func(Params) (*Table, error)

// registry maps experiment ids to drivers; Register is called from each
// figure file's init.
var registry = map[string]Driver{}

// Register installs a driver under id (e.g. "6a").
func Register(id string, d Driver) { registry[id] = d }

// Lookup returns the driver for id.
func Lookup(id string) (Driver, bool) {
	d, ok := registry[strings.TrimPrefix(strings.ToLower(id), "fig")]
	return d, ok
}

// IDs returns all registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
