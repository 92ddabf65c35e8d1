// Checkmetrics audits the metric tables of docs/OBSERVABILITY.md against
// the metrics the code registers, so a counter cannot ship undocumented
// and a documented row cannot outlive its counter.
//
// Registered metrics are the string literals passed to
// metrics.Default.Counter, .Gauge and .IntHistogram (Default.… inside
// package metrics) in non-test Go files. Read metrics are the string
// literals that index the Counters, Gauges or Histograms map of a
// registry snapshot in non-test Go files outside perfbench/ (the
// benchmark module, which tolerates names a build no longer has).
// Documented metrics are the backticked names in the first cell of every
// table row under a "| Metric | Kind | Meaning |" header. Three kinds of
// drift fail the check:
//
//   - a registered metric with no row (undocumented)
//   - a row naming no registered metric (stale docs)
//   - a read of a metric nothing registers (it always reads zero)
//
// Usage: go run ./tools/checkmetrics [root]   (root defaults to ".")
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	regRE  = regexp.MustCompile(`(?:metrics\.)?Default\.(?:Counter|Gauge|IntHistogram)\(\s*"([^"]+)"`)
	readRE = regexp.MustCompile(`\b(?:Counters|Gauges|Histograms)\[\s*"([^"]+)"\s*\]`)
	nameRE = regexp.MustCompile("`([a-z0-9_]+(?:\\.[a-z0-9_]+)+)`")
)

// scan maps each metric name registered in non-test Go code under root
// to the first file registering it, and each name read outside perfbench/
// to the first file:line reading it.
func scan(root string) (reg, read map[string]string, err error) {
	reg, read = map[string]string{}, map[string]string{}
	bench := filepath.Join(root, "perfbench")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src := string(data)
		for _, m := range regRE.FindAllStringSubmatch(src, -1) {
			if _, seen := reg[m[1]]; !seen {
				reg[m[1]] = path
			}
		}
		if strings.HasPrefix(path, bench+string(filepath.Separator)) {
			return nil
		}
		for _, m := range readRE.FindAllStringSubmatchIndex(src, -1) {
			name := src[m[2]:m[3]]
			if _, seen := read[name]; !seen {
				read[name] = fmt.Sprintf("%s:%d", path, 1+strings.Count(src[:m[0]], "\n"))
			}
		}
		return nil
	})
	return reg, read, err
}

// documented maps each metric named by a metric-table row of the
// markdown file at path to its line number.
func documented(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	inTable := false
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		first := strings.TrimSpace(cells[0])
		if first == "Metric" {
			inTable = true
			continue
		}
		if !inTable || strings.Trim(first, "-: ") == "" {
			continue
		}
		for _, m := range nameRE.FindAllStringSubmatch(first, -1) {
			out[m[1]] = i + 1
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	doc := filepath.Join(root, "docs", "OBSERVABILITY.md")
	reg, read, err := scan(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkmetrics:", err)
		os.Exit(2)
	}
	rows, err := documented(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkmetrics:", err)
		os.Exit(2)
	}

	drift := 0
	for _, name := range sortedKeys(reg) {
		if _, ok := rows[name]; !ok {
			fmt.Printf("%s: registers %s, which has no row in %s\n", reg[name], name, doc)
			drift++
		}
	}
	for _, name := range sortedKeys(rows) {
		if _, ok := reg[name]; !ok {
			fmt.Printf("%s:%d: documents %s, which no code registers\n", doc, rows[name], name)
			drift++
		}
	}
	for _, name := range sortedKeys(read) {
		if _, ok := reg[name]; !ok {
			fmt.Printf("%s: reads %s, which no code registers\n", read[name], name)
			drift++
		}
	}
	if drift > 0 {
		fmt.Printf("checkmetrics: %d drift(s) between %s, the metric reads and the registered metrics\n", drift, doc)
		os.Exit(1)
	}
	fmt.Printf("checkmetrics: all %d registered metrics are documented, and all %d metrics read are registered\n", len(reg), len(read))
}
