package repro

import (
	"context"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// selectorEntries returns the world's entries with each web source's
// product rules rewritten from WebL into CSS-selector rules over the
// same markup; every other entry is unchanged. E13 times the two rule
// languages; TestWrapperLanguagesAgree checks they answer alike.
func selectorEntries(world *workload.World) []mapping.Entry {
	selectors := map[string]string{
		"thing.product.brand":      "div.product b.brand::text",
		"thing.product.model":      "div.product span.model::text",
		"thing.product.watch.case": "div.product span.case::text",
		"thing.product.price":      "div.product span.price::text",
	}
	out := make([]mapping.Entry, len(world.Entries))
	for i, e := range world.Entries {
		if sel, ok := selectors[e.AttributeID]; ok && e.Rule.Language == mapping.LangWebL {
			e.Rule = mapping.Rule{Language: mapping.LangSelector, Code: sel}
		}
		out[i] = e
	}
	return out
}

// TestWrapperLanguagesAgree: the paper query gives byte-identical JSON
// whether the generated pages are mapped by the generator's WebL rules
// or by the equivalent CSS-selector rules (experiment E13), and the
// answer matches the generator's ground truth.
func TestWrapperLanguagesAgree(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{WebSources: 2, RecordsPerSource: 300, Seed: 10})
	answer := func(entries []mapping.Entry) (string, int) {
		mw := registerMW(t, world, entries, extract.Options{})
		res, err := mw.Query(context.Background(), paperQuery)
		if err != nil || len(res.Errors) > 0 {
			t.Fatalf("query: %v %v", err, res.Errors)
		}
		var out strings.Builder
		if err := mw.Generator().Serialize(&out, res, instance.FormatJSON); err != nil {
			t.Fatal(err)
		}
		return out.String(), len(res.Matched)
	}

	selectors := selectorEntries(world)
	rewritten := 0
	for _, e := range selectors {
		if e.Rule.Language == mapping.LangSelector {
			rewritten++
		}
	}
	if rewritten != 8 {
		t.Fatalf("selectorEntries rewrote %d rules, want 4 per web source", rewritten)
	}
	webl, matched := answer(world.Entries)
	if selector, _ := answer(selectors); selector != webl {
		t.Errorf("selector answer differs from WebL answer:\nwebl:     %.300s\nselector: %.300s", webl, selector)
	}
	if want := world.CountMatching(isSeikoSteel); matched != want || want == 0 {
		t.Errorf("matched %d, ground truth %d", matched, want)
	}
}

// TestExperimentIndexMatchesBenchmarks keeps the three places that name
// an experiment in lockstep: every `func BenchmarkE<n>` in bench_test.go
// is exactly one row of DESIGN.md's per-experiment index and one
// `## E<n>` section of EXPERIMENTS.md, and neither document names an
// experiment the benchmarks do not define.
func TestExperimentIndexMatchesBenchmarks(t *testing.T) {
	ids := func(path, pattern string) []string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(string(raw), -1) {
			out = append(out, "E"+m[1])
		}
		sort.Strings(out)
		return out
	}
	bench := ids("bench_test.go", `(?m)^func BenchmarkE(\d+)[A-Z]`)
	if len(bench) == 0 || len(slices.Compact(slices.Clone(bench))) != len(bench) {
		t.Fatalf("bench_test.go must define each experiment exactly once: %v", bench)
	}
	for doc, got := range map[string][]string{
		"DESIGN.md index": ids("DESIGN.md", `(?m)^\| E(\d+) `),
		"EXPERIMENTS.md":  ids("EXPERIMENTS.md", `(?m)^## E(\d+) `),
	} {
		if !slices.Equal(got, bench) {
			t.Errorf("%s names experiments %v; bench_test.go defines %v", doc, got, bench)
		}
	}
}
