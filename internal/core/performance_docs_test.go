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
		"`extract.Options.DisablePushdown`",
		"`extract.Options.StreamBatchRecords`",
	} {
		if !strings.Contains(doc, knob) {
			t.Errorf("tuning knob %s missing from %s", knob, perfDocPath)
		}
	}

	// Each knob's bullet under "## Tuning knobs" must state the default
	// its constant holds.
	bullets := tuningKnobBullets(doc)
	for knob, val := range map[string]int{
		"`core.Config.PlanCacheSize`":          DefaultPlanCacheSize,
		"`extract.Options.Parallelism`":        extract.DefaultParallelism,
		"`extract.Options.StreamBatchRecords`": extract.DefaultStreamBatchRecords,
		"`extract.Options.SemiJoinMaxValues`":  extract.DefaultSemiJoinMaxValues,
	} {
		bullet, ok := bullets[knob]
		if !ok {
			t.Errorf("no bullet for %s under \"## Tuning knobs\" in %s", knob, perfDocPath)
			continue
		}
		if !regexp.MustCompile(`\b` + strconv.Itoa(val) + `\b`).MatchString(bullet) {
			t.Errorf("bullet for %s does not state its default %d: %q", knob, val, bullet)
		}
	}
}

// tuningKnobBullets maps each bullet's leading code span under the
// "## Tuning knobs" heading to the bullet's full text, continuation
// lines included.
func tuningKnobBullets(doc string) map[string]string {
	_, section, _ := strings.Cut(doc, "\n## Tuning knobs\n")
	section, _, _ = strings.Cut(section, "\n## ")
	bullets := map[string]string{}
	for _, b := range strings.Split(section, "\n- ")[1:] {
		if knob, _, ok := strings.Cut(b, " "); ok {
			bullets[knob] = b
		}
	}
	return bullets
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
