package obs

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const docPath = "../../docs/OBSERVABILITY.md"

// TestDocCoversEveryMetric keeps docs/OBSERVABILITY.md and the declared
// metric families in lockstep: every family must be documented, and
// every s2s_* name the document mentions must be a declared family.
func TestDocCoversEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatalf("read %s: %v", docPath, err)
	}
	doc := string(raw)

	declared := map[string]bool{}
	for _, name := range MetricNames() {
		declared[name] = true
		if !strings.Contains(doc, name) {
			t.Errorf("metric %s is emitted but not documented in %s", name, docPath)
		}
	}

	// Every s2s_* token in the doc must resolve to a declared family
	// (histogram series suffixes _bucket/_sum/_count included).
	mentioned := map[string]bool{}
	for _, tok := range regexp.MustCompile(`s2s_\w+`).FindAllString(doc, -1) {
		name := tok
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && declared[base] {
				name = base
				break
			}
		}
		if !declared[name] {
			t.Errorf("doc mentions %q, which is not a declared metric family", tok)
		}
		mentioned[name] = true
	}
	if len(mentioned) != len(declared) {
		var missing []string
		for name := range declared {
			if !mentioned[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		t.Errorf("doc never mentions: %v", missing)
	}
}

// TestDocCoversEveryOutcomeValue keeps the documented label values in
// lockstep with the outcome constants the pipeline emits: every outcome
// of every labeled family must appear in docs/OBSERVABILITY.md.
func TestDocCoversEveryOutcomeValue(t *testing.T) {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatalf("read %s: %v", docPath, err)
	}
	doc := string(raw)
	families := []struct {
		family   string
		outcomes []string
	}{
		{MetricQueryTotal, QueryOutcomes},
		{MetricSourceExtractTotal, SourceOutcomes},
		{MetricClusterSubqueries, ClusterSubqueryOutcomes},
		{MetricClusterHedges, ClusterHedgeOutcomes},
		{MetricPlannerMergeFree, MergeFreeOutcomes},
		{MetricPlannerSemiJoin, SemiJoinOutcomes},
	}
	for _, f := range families {
		for _, outcome := range f.outcomes {
			if !strings.Contains(doc, "`"+outcome+"`") {
				t.Errorf("outcome %q of %s is emitted but not documented in %s",
					outcome, f.family, docPath)
			}
		}
	}
}

// TestDocCoversSpanTaxonomy pins the span names the pipeline emits to
// the documented taxonomy: every stage, and every root a route or entry
// point opens.
func TestDocCoversSpanTaxonomy(t *testing.T) {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatalf("read %s: %v", docPath, err)
	}
	doc := string(raw)
	for _, name := range []string{
		"`query`", "`http_query`", "`parse_plan`", "`extract`",
		"`extraction_schema`", "`source:<id>`", "`generate`", "`serialize`",
		"`http_query_stream`", "`http_query_batch`", "`cluster_extract`", "`batch`", "`http_sparql`",
	} {
		if !strings.Contains(doc, name) {
			t.Errorf("span %s missing from %s", name, docPath)
		}
	}
}
