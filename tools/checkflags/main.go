// Checkflags audits the documented command-line flag tables against the
// flags the commands actually declare, so `peerd -h` and the docs cannot
// drift apart silently.
//
// Declared flags are extracted from cmd/<name>/*.go (flag.String, .Bool,
// .Int, .Int64, .Uint64, .Float64, .Duration, and flag.Var calls, on the
// flag package or on a FlagSet named fs).
// Documented flags are extracted from markdown sections headed by a
// heading that names `cmd/<name>`: inside such a section, every table
// row whose first cell carries backticked `-flag` tokens documents those
// flags. Three kinds of drift fail the check:
//
//   - a documented flag the command does not declare (stale docs)
//   - a declared flag missing from the command's table (undocumented)
//   - a command that declares flags but has no flag table anywhere
//
// Usage: go run ./tools/checkflags [root]   (root defaults to ".")
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
	declRE    = regexp.MustCompile(`\b(?:flag|fs)\.(?:String|Bool|Int|Int64|Uint64|Float64|Duration)\(\s*"([^"]+)"`)
	declVarRE = regexp.MustCompile(`\b(?:flag|fs)\.Var\(\s*[^,]+,\s*\n?\s*"([^"]+)"`)
	headingRE = regexp.MustCompile("^#+ .*`cmd/([a-zA-Z0-9_-]+)`")
	tokenRE   = regexp.MustCompile("`-([a-zA-Z0-9][a-zA-Z0-9_-]*)`")
)

// declaredFlags scans one command directory for flag definitions.
func declaredFlags(dir string) (map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	flags := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, m := range declRE.FindAllStringSubmatch(string(data), -1) {
			flags[m[1]] = true
		}
		for _, m := range declVarRE.FindAllStringSubmatch(string(data), -1) {
			flags[m[1]] = true
		}
	}
	return flags, nil
}

// tableFlags holds one documented flag table: where it is and which
// flags its rows name.
type tableFlags struct {
	file  string
	line  int
	flags map[string]bool
}

// documentedFlags scans a markdown file for per-command flag tables.
func documentedFlags(path string) (map[string][]tableFlags, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]tableFlags{}
	var cmd string
	var cur *tableFlags
	flush := func() {
		if cur != nil && len(cur.flags) > 0 {
			out[cmd] = append(out[cmd], *cur)
		}
		cur = nil
	}
	for i, line := range strings.Split(string(data), "\n") {
		if m := headingRE.FindStringSubmatch(line); m != nil {
			flush()
			cmd = m[1]
			continue
		}
		if strings.HasPrefix(line, "#") { // any other heading ends the section
			flush()
			cmd = ""
			continue
		}
		if cmd == "" || !strings.HasPrefix(strings.TrimSpace(line), "|") {
			flush()
			continue
		}
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		if len(cells) == 0 {
			continue
		}
		first := strings.TrimSpace(cells[0])
		if strings.Trim(first, "-: ") == "" || first == "Flag" { // separator or header row
			if cur == nil {
				cur = &tableFlags{file: path, line: i + 1, flags: map[string]bool{}}
			}
			continue
		}
		toks := tokenRE.FindAllStringSubmatch(first, -1)
		if len(toks) == 0 {
			continue
		}
		if cur == nil {
			cur = &tableFlags{file: path, line: i + 1, flags: map[string]bool{}}
		}
		for _, tk := range toks {
			cur.flags[tk[1]] = true
		}
	}
	flush()
	return out, nil
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
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

	declared := map[string]map[string]bool{}
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkflags:", err)
		os.Exit(2)
	}
	for _, c := range cmds {
		if !c.IsDir() {
			continue
		}
		flags, err := declaredFlags(filepath.Join(root, "cmd", c.Name()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkflags:", err)
			os.Exit(2)
		}
		if len(flags) > 0 {
			declared[c.Name()] = flags
		}
	}

	documented := map[string][]tableFlags{}
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
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		tables, err := documentedFlags(path)
		if err != nil {
			return err
		}
		for cmd, ts := range tables {
			documented[cmd] = append(documented[cmd], ts...)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkflags:", err)
		os.Exit(2)
	}

	drift := 0
	for _, cmd := range sorted(mapKeys(declared)) {
		tables := documented[cmd]
		if len(tables) == 0 {
			fmt.Printf("cmd/%s: declares %d flags but no doc section has a flag table\n",
				cmd, len(declared[cmd]))
			drift++
			continue
		}
		for _, tb := range tables {
			for _, f := range sorted(tb.flags) {
				if !declared[cmd][f] {
					fmt.Printf("%s:%d: documents -%s, which cmd/%s does not declare\n",
						tb.file, tb.line, f, cmd)
					drift++
				}
			}
			for _, f := range sorted(declared[cmd]) {
				if !tb.flags[f] {
					fmt.Printf("%s:%d: flag table for cmd/%s is missing -%s\n",
						tb.file, tb.line, cmd, f)
					drift++
				}
			}
		}
	}
	for _, cmd := range sorted(mapKeys(documented)) {
		if _, ok := declared[cmd]; !ok {
			for _, tb := range documented[cmd] {
				fmt.Printf("%s:%d: flag table for unknown command cmd/%s\n", tb.file, tb.line, cmd)
				drift++
			}
		}
	}
	if drift > 0 {
		fmt.Printf("checkflags: %d drift(s) between docs and cmd/* flags\n", drift)
		os.Exit(1)
	}
	fmt.Println("checkflags: all flag tables match the declared flags")
}

func mapKeys[V any](m map[string]V) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
