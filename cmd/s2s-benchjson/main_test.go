package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestCompareBaselines(t *testing.T) {
	old := Baseline{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 50},
		{Name: "BenchmarkB", NsPerOp: 2000},
		{Name: "BenchmarkGone", NsPerOp: 10},
	}}
	cur := Baseline{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 1100, AllocsPerOp: 40}, // +10%: within threshold
		{Name: "BenchmarkB", NsPerOp: 2500},                  // +25%: regression
		{Name: "BenchmarkNew", NsPerOp: 5},
	}}
	var out strings.Builder
	regressed, err := compareBaselines(old, cur, 20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 1 || regressed[0] != "BenchmarkB" {
		t.Fatalf("regressed = %v, want [BenchmarkB]", regressed)
	}
	text := out.String()
	for _, want := range []string{"REGRESSED", "new", "removed", "BenchmarkGone", "allocs/op"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}

	// A faster run is never a regression, whatever the margin.
	fast := Baseline{Results: []Result{{Name: "BenchmarkB", NsPerOp: 100}}}
	if got, _ := compareBaselines(old, fast, 20, &out); len(got) != 0 {
		t.Errorf("speedup flagged as regression: %v", got)
	}
}

func TestCompareBaselinesAllocGate(t *testing.T) {
	old := Baseline{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkZero", NsPerOp: 1000},                   // allocs 0→0: flat
		{Name: "BenchmarkGained", NsPerOp: 1000},                 // allocs 0→N: no percentage, no gate
		{Name: "BenchmarkBoth", NsPerOp: 1000, AllocsPerOp: 100}, // ns/op AND allocs regress: one entry
	}}
	cur := Baseline{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 130}, // +30% allocs, flat ns/op
		{Name: "BenchmarkZero", NsPerOp: 1000},
		{Name: "BenchmarkGained", NsPerOp: 1000, AllocsPerOp: 500},
		{Name: "BenchmarkBoth", NsPerOp: 2000, AllocsPerOp: 300},
	}}
	var out strings.Builder
	regressed, err := compareBaselines(old, cur, 20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 2 || regressed[0] != "BenchmarkA" || regressed[1] != "BenchmarkBoth" {
		t.Fatalf("regressed = %v, want [BenchmarkA BenchmarkBoth]", regressed)
	}

	// Fewer allocations is an improvement, not a regression.
	better := Baseline{Results: []Result{{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 10}}}
	if got, _ := compareBaselines(old, better, 20, &out); len(got) != 0 {
		t.Errorf("alloc reduction flagged as regression: %v", got)
	}
}

func TestCompareBaselinesExtraNsGate(t *testing.T) {
	old := Baseline{Results: []Result{
		{Name: "BenchmarkE21", NsPerOp: 1000, Extra: map[string]float64{"first_instance_ns": 100000, "windows": 4}},
		{Name: "BenchmarkOnlyOld", NsPerOp: 1000, Extra: map[string]float64{"first_instance_ns": 100000}},
	}}
	cur := Baseline{Results: []Result{
		{Name: "BenchmarkE21", NsPerOp: 1000, Extra: map[string]float64{"first_instance_ns": 150000, "windows": 400}},
		{Name: "BenchmarkOnlyOld", NsPerOp: 1000}, // metric dropped: nothing to compare
	}}
	var out strings.Builder
	regressed, err := compareBaselines(old, cur, 20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 1 || regressed[0] != "BenchmarkE21" {
		t.Fatalf("regressed = %v, want [BenchmarkE21]", regressed)
	}
	if !strings.Contains(out.String(), "first_instance_ns") {
		t.Errorf("compare output missing the extra metric row:\n%s", out.String())
	}
	// "windows" blew up 100x but is not a _ns unit: it must not gate.
	if strings.Count(out.String(), "REGRESSED") != 1 {
		t.Errorf("non-_ns extra gated:\n%s", out.String())
	}

	// Faster time-to-first-instance is an improvement.
	better := Baseline{Results: []Result{
		{Name: "BenchmarkE21", NsPerOp: 1000, Extra: map[string]float64{"first_instance_ns": 10000}},
	}}
	if got, _ := compareBaselines(old, better, 20, &out); len(got) != 0 {
		t.Errorf("first-instance speedup flagged as regression: %v", got)
	}
}

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkE1EndToEnd-8   \t     123\t   9876543 ns/op\t  123456 B/op\t    1234 allocs/op")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if r.Name != "BenchmarkE1EndToEnd" || r.Procs != 8 || r.Iterations != 123 {
		t.Errorf("parsed %+v", r)
	}
	if r.NsPerOp != 9876543 || r.BytesPerOp != 123456 || r.AllocsPerOp != 1234 {
		t.Errorf("units parsed wrong: %+v", r)
	}

	sub, ok := parseLine("BenchmarkE2OntologyScale/classes=64-4  50  31415.9 ns/op")
	if !ok || sub.Name != "BenchmarkE2OntologyScale/classes=64" || sub.NsPerOp != 31415.9 {
		t.Errorf("subbenchmark parsed wrong: %+v ok=%v", sub, ok)
	}

	extra, ok := parseLine("BenchmarkE21FirstInstance-8  10  5000000 ns/op  250000 first_instance_ns  4.0 windows")
	if !ok || extra.NsPerOp != 5000000 {
		t.Fatalf("custom-metric line parsed wrong: %+v ok=%v", extra, ok)
	}
	if extra.Extra["first_instance_ns"] != 250000 || extra.Extra["windows"] != 4.0 {
		t.Errorf("custom metrics not captured: %+v", extra.Extra)
	}

	for _, junk := range []string{"PASS", "ok  \trepro\t12.3s", "goos: linux", "", "some log line"} {
		if _, ok := parseLine(junk); ok {
			t.Errorf("%q misparsed as a benchmark line", junk)
		}
	}
}

// TestPipelineRefusesSilentFailure: each way a broken benchmark run
// could pass through `go test -bench | s2s-benchjson` and -compare
// unnoticed is an error instead.
func TestPipelineRefusesSilentFailure(t *testing.T) {
	const line = "BenchmarkE6QueryHandler/predicates=1-8  100  5000 ns/op\n"
	convertErr := func(input string) func() error {
		return func() error {
			_, err := convert(strings.NewReader(input))
			return err
		}
	}
	only := func(name string) Baseline { return Baseline{Results: []Result{{Name: name, NsPerOp: 1}}} }
	for _, tc := range []struct {
		name   string
		run    func() error
		wantOK bool
	}{
		{"clean run", convertErr(line + "PASS\nok  \trepro\t1.2s\n"), true},
		{"failed sub-benchmark", convertErr(line + "--- FAIL: BenchmarkE6QueryHandler\n    --- FAIL: BenchmarkE6QueryHandler/predicates=4\n"), false},
		{"failed package", convertErr(line + "FAIL\trepro\t1.2s\n"), false},
		{"zero results", convertErr("goos: linux\nPASS\nok  \trepro\t0.1s\n"), false},
		{"compare shares no benchmark", func() error {
			_, err := compareBaselines(only("BenchmarkA"), only("BenchmarkB"), 20, io.Discard)
			return err
		}, false},
	} {
		if err := tc.run(); (err == nil) != tc.wantOK {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.wantOK)
		}
	}
}

func TestMarkdownOneTablePerFamily(t *testing.T) {
	base := Baseline{Results: []Result{
		{Name: "BenchmarkE1EndToEnd/records=10", NsPerOp: 329828, BytesPerOp: 83760, AllocsPerOp: 1339},
		{Name: "BenchmarkE1EndToEnd/records=1000", NsPerOp: 17117752.5, BytesPerOp: 3183922, AllocsPerOp: 55152},
		{Name: "BenchmarkE16ConcurrentQuery", NsPerOp: 81000, BytesPerOp: 100, AllocsPerOp: 2},
		{Name: "BenchmarkE21FirstInstance/eager", NsPerOp: 5, Extra: map[string]float64{"first_instance_ns": 497118}},
		{Name: "BenchmarkE21FirstInstance/barrier", NsPerOp: 6},
	}}
	var out strings.Builder
	markdown(&out, base)
	want := `### BenchmarkE1EndToEnd

| benchmark    |      ns/op |    B/op | allocs/op |
| ------------ | ---------: | ------: | --------: |
| records=10   |     329828 |   83760 |      1339 |
| records=1000 | 17117752.5 | 3183922 |     55152 |

### BenchmarkE16ConcurrentQuery

| benchmark | ns/op | B/op | allocs/op |
| --------- | ----: | ---: | --------: |
| -         | 81000 |  100 |         2 |

### BenchmarkE21FirstInstance

| benchmark | ns/op | B/op | allocs/op | first_instance_ns |
| --------- | ----: | ---: | --------: | ----------------: |
| eager     |     5 |    0 |         0 |            497118 |
| barrier   |     6 |    0 |         0 |                   |
`
	if out.String() != want {
		t.Errorf("markdown output:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestTableAlignment(t *testing.T) {
	tbl := &table{header: []string{"name", "value"}, rows: [][]string{{"short", "1"}, {"a-much-longer-name", "22222"}}}
	var out strings.Builder
	tbl.print(&out)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %q", lines)
	}
	// Header, separator, and rows align on the widest cell.
	if !strings.Contains(lines[1], strings.Repeat("-", len("a-much-longer-name"))) {
		t.Errorf("separator not sized to widest cell: %q", lines[1])
	}
	for _, line := range lines[1:] {
		if len(line) != len(lines[0]) || strings.Index(line[1:], "|") != strings.Index(lines[0][1:], "|") {
			t.Errorf("row not aligned with header:\n%s\n%s", lines[0], line)
		}
	}
	// Numbers are right-aligned.
	if !strings.HasSuffix(lines[2], "     1 |") {
		t.Errorf("value column not right-aligned: %q", lines[2])
	}
}

// TestExperimentsDocShowsBaseline keeps EXPERIMENTS.md and the committed
// baseline in lockstep: every family's -markdown table must appear
// verbatim in the document, so every number its tables show is one
// BENCH_baseline.json records. Regenerating the baseline without
// regenerating the tables fails here.
func TestExperimentsDocShowsBaseline(t *testing.T) {
	base, err := readBaseline("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range familyTables(base) {
		var tbl strings.Builder
		fam.print(&tbl)
		if !strings.Contains(string(doc), tbl.String()) {
			t.Errorf("EXPERIMENTS.md does not show %s's table as `s2s-benchjson -markdown` prints it:\n%s", fam.name, tbl.String())
		}
	}
}
