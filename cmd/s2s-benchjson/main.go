// Command s2s-benchjson converts `go test -bench` text output (read
// from stdin) into machine-readable JSON on stdout, so `make bench` can
// persist the one perf baseline (BENCH_baseline.json) that future PRs
// diff against. Only the standard benchmark line format is parsed;
// other output (PASS, ok, log lines) is ignored, except that a failure
// line (`--- FAIL`, `FAIL`) or input with no benchmark result makes the
// command exit non-zero without writing a baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | s2s-benchjson > baseline.json
//
// With -compare, the command instead diffs two previously recorded
// baselines benchmark by benchmark and exits non-zero when any shared
// benchmark's ns/op — or allocs/op, or a custom "_ns" metric such as
// first_instance_ns, where both runs recorded it — regressed by more
// than -threshold percent (20 by default), or when the two documents
// share no benchmark at all, so `make bench-compare` can gate perf
// changes:
//
//	s2s-benchjson -compare old.json new.json
//
// With -markdown, it prints a recorded baseline as one markdown table
// per benchmark family — the tables EXPERIMENTS.md shows:
//
//	s2s-benchjson -markdown BENCH_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	// Extra holds custom b.ReportMetric units the line carried beyond
	// the standard four — "first_instance_ns" from BenchmarkE21, for
	// example — keyed by unit name.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Baseline is the persisted document.
type Baseline struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
}

// benchRe matches "BenchmarkName-8  123  456 ns/op ..." lines.
var benchRe = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// failRe matches the lines `go test` prints for a failed benchmark or
// package: "--- FAIL: BenchmarkX" (indented under its parent) and
// "FAIL" / "FAIL\trepro\t1.2s".
var failRe = regexp.MustCompile(`^\s*(--- FAIL|FAIL\b)`)

func main() {
	compare := flag.Bool("compare", false, "diff two baseline JSON files instead of converting bench output")
	threshold := flag.Float64("threshold", 20, "with -compare, fail on ns/op regressions above this percentage")
	markdownMode := flag.Bool("markdown", false, "print one baseline JSON file as one markdown table per benchmark family")
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(2, "-compare needs exactly two baseline files: old.json new.json")
		}
		regressed, err := compareBaselines(mustRead(flag.Arg(0)), mustRead(flag.Arg(1)), *threshold, os.Stdout)
		if err != nil {
			fail(1, err)
		}
		if len(regressed) > 0 {
			fail(1, fmt.Sprintf("%d benchmark(s) regressed more than %.0f%%: %s",
				len(regressed), *threshold, strings.Join(regressed, ", ")))
		}
	case *markdownMode:
		if flag.NArg() != 1 {
			fail(2, "-markdown needs exactly one baseline file")
		}
		markdown(os.Stdout, mustRead(flag.Arg(0)))
	default:
		base, err := convert(os.Stdin)
		if err != nil {
			fail(1, err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(base); err != nil {
			fail(1, err)
		}
	}
}

// fail reports msg on stderr and exits with code.
func fail(code int, msg any) {
	fmt.Fprintln(os.Stderr, "s2s-benchjson:", msg)
	os.Exit(code)
}

// convert parses `go test -bench` output into a baseline. It refuses
// output that reports a failure or carries no benchmark result, so a
// family that b.Fatal'd cannot be recorded as a partial or empty
// baseline. It reads to EOF either way, so the producer upstream of
// the pipe is never cut off mid-write.
func convert(r io.Reader) (Baseline, error) {
	base := Baseline{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Results:   []Result{},
	}
	var failed string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if failed == "" && failRe.MatchString(sc.Text()) {
			failed = strings.TrimSpace(sc.Text())
		}
		if r, ok := parseLine(sc.Text()); ok {
			base.Results = append(base.Results, r)
		}
	}
	switch {
	case sc.Err() != nil:
		return base, sc.Err()
	case failed != "":
		return base, fmt.Errorf("benchmark run failed: %q", failed)
	case len(base.Results) == 0:
		return base, errors.New("no benchmark results in input")
	}
	return base, nil
}

// mustRead is readBaseline for the command line: a missing or
// malformed file is a usage error.
func mustRead(path string) Baseline {
	b, err := readBaseline(path)
	if err != nil {
		fail(2, err)
	}
	return b
}

// readBaseline loads one persisted baseline document.
func readBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// compareBaselines prints a per-benchmark delta table and returns the
// names whose ns/op or allocs/op regressed by more than threshold
// percent. Benchmarks present in only one document are reported but
// never fail the compare: added or retired benchmarks are not
// regressions. Two documents that share no benchmark at all are an
// error, not a pass — nothing was compared. The allocs gate only
// applies when the old run recorded a non-zero count — 0→0 is flat,
// and a 0→N jump has no percentage to gate on (typically a benchmark
// that just gained -benchmem).
func compareBaselines(old, cur Baseline, threshold float64, w io.Writer) ([]string, error) {
	oldBy := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	// over reports a rise of more than threshold percent; an old value
	// of zero has no percentage to gate on.
	over := func(old, cur float64) bool { return old > 0 && (cur-old)/old*100 > threshold }
	mark := func(regressed bool) string {
		if regressed {
			return "  REGRESSED"
		}
		return ""
	}
	var regressed []string
	shared := 0
	seen := make(map[string]bool, len(cur.Results))
	fmt.Fprintf(w, "%-52s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, nr := range cur.Results {
		seen[nr.Name] = true
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Fprintf(w, "%-52s %14s %14.0f %9s\n", nr.Name, "-", nr.NsPerOp, "new")
			continue
		}
		shared++
		delta := 0.0
		if or.NsPerOp > 0 {
			delta = (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
		}
		bad := delta > threshold
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %+8.1f%%%s\n", nr.Name, or.NsPerOp, nr.NsPerOp, delta, mark(bad))
		if or.AllocsPerOp != 0 || nr.AllocsPerOp != 0 {
			allocBad := over(float64(or.AllocsPerOp), float64(nr.AllocsPerOp))
			bad = bad || allocBad
			fmt.Fprintf(w, "%-52s %14d %14d  (allocs/op)%s\n", "", or.AllocsPerOp, nr.AllocsPerOp, mark(allocBad))
		}
		for _, unit := range sharedNsExtras(or.Extra, nr.Extra) {
			ov, nv := or.Extra[unit], nr.Extra[unit]
			extraBad := over(ov, nv)
			bad = bad || extraBad
			fmt.Fprintf(w, "%-52s %14.0f %14.0f  (%s)%s\n", "", ov, nv, unit, mark(extraBad))
		}
		if bad {
			regressed = append(regressed, nr.Name)
		}
	}
	var gone []string
	for _, or := range old.Results {
		if !seen[or.Name] {
			gone = append(gone, or.Name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "%-52s %14s %14s %9s\n", name, "-", "-", "removed")
	}
	if shared == 0 {
		return nil, errors.New("the two baselines share no benchmark; nothing was compared")
	}
	return regressed, nil
}

// sharedNsExtras returns the custom nanosecond metrics recorded with a
// positive value by both runs, sorted — first_instance_ns and kin. Only
// "_ns"-suffixed units gate: they are time measurements, so lower is
// better and a percentage regression is meaningful; dimensionless
// extras are carried in the JSON but not compared.
func sharedNsExtras(old, cur map[string]float64) []string {
	var units []string
	for unit, ov := range old {
		if !strings.HasSuffix(unit, "_ns") || ov <= 0 {
			continue
		}
		if _, ok := cur[unit]; ok {
			units = append(units, unit)
		}
	}
	sort.Strings(units)
	return units
}

// parseLine parses one benchmark result line; ok is false for
// non-benchmark output.
func parseLine(line string) (Result, bool) {
	m := benchRe.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Result{}, false
	}
	r := Result{Name: m[1], Procs: 1}
	if m[2] != "" {
		r.Procs, _ = strconv.Atoi(m[2])
	}
	r.Iterations, _ = strconv.ParseInt(m[3], 10, 64)

	// The tail is unit pairs: "456.7 ns/op  12 B/op  3 allocs/op  8.9 MB/s".
	fields := strings.Fields(m[4])
	for i := 0; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "MB/s":
			r.MBPerS, _ = strconv.ParseFloat(val, 64)
		default:
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	if r.NsPerOp == 0 && r.Iterations == 0 {
		return Result{}, false
	}
	return r, true
}

// markdown writes one table per benchmark family — the name up to its
// first '/' — in the order the families ran.
func markdown(w io.Writer, base Baseline) {
	for i, fam := range familyTables(base) {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "### %s\n\n", fam.name)
		fam.print(w)
	}
}

// familyTables builds one table per family: a row per sub-benchmark
// with its ns/op, B/op and allocs/op, and a column per custom metric the
// family reports. Cells are the baseline's values verbatim, so every
// number a document copies from them is one the baseline records.
func familyTables(base Baseline) []*table {
	var names []string
	results := map[string][]Result{}
	for _, r := range base.Results {
		name, _, _ := strings.Cut(r.Name, "/")
		if _, ok := results[name]; !ok {
			names = append(names, name)
		}
		results[name] = append(results[name], r)
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	out := make([]*table, len(names))
	for i, name := range names {
		var extras []string
		for _, r := range results[name] {
			for unit := range r.Extra {
				if !slices.Contains(extras, unit) {
					extras = append(extras, unit)
				}
			}
		}
		sort.Strings(extras)
		t := &table{name: name, header: append([]string{"benchmark", "ns/op", "B/op", "allocs/op"}, extras...)}
		for _, r := range results[name] {
			sub := strings.TrimPrefix(strings.TrimPrefix(r.Name, name), "/")
			if sub == "" {
				sub = "-"
			}
			row := []string{sub, num(r.NsPerOp), num(float64(r.BytesPerOp)), num(float64(r.AllocsPerOp))}
			for _, unit := range extras {
				if v, ok := r.Extra[unit]; ok {
					row = append(row, num(v))
				} else {
					row = append(row, "")
				}
			}
			t.rows = append(t.rows, row)
		}
		out[i] = t
	}
	return out
}

// table is a markdown table with every column padded to its widest
// cell: the first column left-aligned, the numeric rest right-aligned.
type table struct {
	name   string // the benchmark family, printed as the table's heading
	header []string
	rows   [][]string
}

func (t *table) print(w io.Writer) {
	widths := make([]int, len(t.header))
	for _, row := range append([][]string{t.header}, t.rows...) {
		for i, c := range row {
			widths[i] = max(widths[i], len(c), 3)
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(w, "| %-*s ", widths[i], c)
			} else {
				fmt.Fprintf(w, "| %*s ", widths[i], c)
			}
		}
		fmt.Fprintln(w, "|")
	}
	line(t.header)
	seps := make([]string, len(widths))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
		if i > 0 {
			seps[i] = seps[i][1:] + ":"
		}
	}
	line(seps)
	for _, row := range t.rows {
		line(row)
	}
}
