package core

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/extract"
)

const perfDocPath = "../../docs/PERFORMANCE.md"

// TestPerformanceDocKnobsExist keeps docs/PERFORMANCE.md and the code
// in lockstep, the same contract the observability and robustness docs
// have: every `extract.Options.X` / `core.Config.X` knob the document
// names must be a real struct field, and the tuning knobs that exist
// must be documented.
func TestPerformanceDocKnobsExist(t *testing.T) {
	raw, err := os.ReadFile(perfDocPath)
	if err != nil {
		t.Fatalf("read %s: %v", perfDocPath, err)
	}
	doc := string(raw)

	optFields := map[string]bool{}
	ot := reflect.TypeOf(extract.Options{})
	for i := 0; i < ot.NumField(); i++ {
		optFields[ot.Field(i).Name] = true
	}
	cfgFields := map[string]bool{}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		cfgFields[ct.Field(i).Name] = true
	}

	for _, m := range regexp.MustCompile("`extract\\.Options\\.(\\w+)`").FindAllStringSubmatch(doc, -1) {
		if !optFields[m[1]] {
			t.Errorf("doc names %s, which is not a field of extract.Options", m[0])
		}
	}
	for _, m := range regexp.MustCompile("`core\\.Config\\.(\\w+)`").FindAllStringSubmatch(doc, -1) {
		if !cfgFields[m[1]] {
			t.Errorf("doc names %s, which is not a field of core.Config", m[0])
		}
	}

	// The knobs the caching layer exposes must all be documented.
	for _, knob := range []string{
		"`core.Config.PlanCacheSize`",
		"`extract.Options.Parallelism`",
		"`extract.Options.RuleParallelism`",
		"`extract.Options.DisablePushdown`",
		"`extract.Options.StreamBatchRecords`",
	} {
		if !strings.Contains(doc, knob) {
			t.Errorf("tuning knob %s missing from %s", knob, perfDocPath)
		}
	}

	// Documented defaults must track the constants.
	for name, val := range map[string]int{
		"PlanCacheSize":   DefaultPlanCacheSize,
		"Parallelism":     extract.DefaultParallelism,
		"RuleParallelism": extract.DefaultRuleParallelism,
	} {
		if !strings.Contains(doc, strconv.Itoa(val)) {
			t.Errorf("default for %s (%d) not stated in %s", name, val, perfDocPath)
		}
	}
}

// TestPerformanceDocCoversBenchesAndTests pins the doc's pointers: the
// benchmark families it describes and the coherence test files it
// cites must exist, and every sub-benchmark it cites by name must be
// one BENCH_baseline.json records.
func TestPerformanceDocCoversBenchesAndTests(t *testing.T) {
	raw, err := os.ReadFile(perfDocPath)
	if err != nil {
		t.Fatalf("read %s: %v", perfDocPath, err)
	}
	doc := string(raw)
	for _, want := range []string{
		"BenchmarkE15RepeatedQuery", "BenchmarkE16ConcurrentQuery",
		"BenchmarkE17SelectiveQuery", "BENCH_baseline.json",
		"make bench-compare FAMILY=", "InvalidateCache",
		"BenchmarkE21FirstInstance", "first_instance_ns",
		"BenchmarkE22Batch",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("%s missing from %s", want, perfDocPath)
		}
	}
	bench, err := os.ReadFile("../../bench_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{
		"BenchmarkE15RepeatedQuery", "BenchmarkE16ConcurrentQuery",
		"BenchmarkE17SelectiveQuery", "BenchmarkE21FirstInstance", "BenchmarkE22Batch",
	} {
		if !strings.Contains(string(bench), "func "+fn) {
			t.Errorf("doc describes %s, which bench_test.go does not define", fn)
		}
	}
	raw, err = os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct{ Results []struct{ Name string } }
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{}
	for _, r := range baseline.Results {
		recorded[r.Name] = true
	}
	for _, name := range regexp.MustCompile("`(BenchmarkE\\d+\\w*/[^`]+)`").FindAllStringSubmatch(doc, -1) {
		if !recorded[name[1]] {
			t.Errorf("doc cites sub-benchmark %s, which BENCH_baseline.json does not record", name[1])
		}
	}
	for _, path := range []string{
		"cache_coherence_test.go",
		"../extract/coherence_test.go",
		"../../docs/PERFORMANCE.md",
	} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("doc cites %s: %v", path, err)
		}
	}
}
