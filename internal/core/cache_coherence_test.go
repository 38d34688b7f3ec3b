package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasource"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// TestPlanCacheWarmsAndInvalidates exercises the plan-cache lifecycle:
// repeated queries share one compiled plan; RegisterSource alone cannot
// change what a plan's extraction schema resolves to, so the answer
// stays byte-identical; RegisterMapping and SetClassKey can, so they
// flush it, and the answer after the mapping sees the new source.
func TestPlanCacheWarmsAndInvalidates(t *testing.T) {
	m, world := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 3, Seed: 21})
	if got := m.PlanCacheLen(); got != 0 {
		t.Fatalf("fresh middleware plan cache len = %d", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Query(context.Background(), "SELECT product"); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.PlanCacheLen(); got != 1 {
		t.Fatalf("after 3 identical queries plan cache len = %d, want 1", got)
	}
	if _, err := m.Query(context.Background(), "SELECT watch"); err != nil {
		t.Fatal(err)
	}
	if got := m.PlanCacheLen(); got != 2 {
		t.Fatalf("after second query text plan cache len = %d, want 2", got)
	}

	refill := func() {
		t.Helper()
		if _, err := m.Query(context.Background(), "SELECT product"); err != nil {
			t.Fatal(err)
		}
		if m.PlanCacheLen() == 0 {
			t.Fatal("plan cache did not refill")
		}
	}

	answer := func() string {
		t.Helper()
		var buf strings.Builder
		if _, err := m.QueryTo(context.Background(), &buf, "SELECT product", instance.FormatJSON); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	before := answer()
	world.Catalog.XML.MustAdd("extra.xml", "<catalog><watch><brand>Orient</brand></watch></catalog>")
	if err := m.RegisterSource(datasource.Definition{ID: "extra_xml", Kind: datasource.KindXML, Path: "extra.xml"}); err != nil {
		t.Fatal(err)
	}
	if got := answer(); got != before {
		t.Errorf("RegisterSource alone changed the answer:\n--- before ---\n%s\n--- after ---\n%s", before, got)
	}

	if err := m.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "extra_xml",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.PlanCacheLen(); got != 0 {
		t.Errorf("RegisterMapping left plan cache len = %d, want 0", got)
	}
	if got := answer(); !strings.Contains(got, `"extra_xml"`) {
		t.Errorf("the answer after RegisterMapping does not see the new source:\n%s", got)
	}

	if err := m.SetClassKey("product", "thing.product.model"); err != nil {
		t.Fatal(err)
	}
	if got := m.PlanCacheLen(); got != 0 {
		t.Errorf("SetClassKey left plan cache len = %d, want 0", got)
	}

	// Failed mutations must not flush: the catalog did not change.
	refill()
	warm := m.PlanCacheLen()
	if err := m.RegisterSource(datasource.Definition{ID: "extra_xml", Kind: datasource.KindXML, Path: "dup.xml"}); err == nil {
		t.Fatal("duplicate source ID accepted")
	}
	if got := m.PlanCacheLen(); got != warm {
		t.Errorf("failed RegisterSource flushed plan cache: len = %d, want %d", got, warm)
	}
}

// TestCatalogMutationsKeepCompiledRules pins the one-flush contract: a
// mapping mutation flushes the plan cache and nothing else, and a source
// registration flushes nothing — the answer after it is byte-identical,
// and the answer after the mapping that uses the source sees it.
// Compiled rules are keyed by their text, so a remapped rule compiles
// under a new key, and RegisterSource, RegisterMapping and SetClassKey
// each leave the compiled rules in place.
func TestCatalogMutationsKeepCompiledRules(t *testing.T) {
	m, world := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 3, Seed: 26})
	world.Catalog.XML.MustAdd("kept.xml", "<catalog><watch><brand>Kept</brand></watch></catalog>")
	for _, mutation := range []struct {
		name    string
		apply   func() error
		flushes bool
		// check, when non-nil, judges the answer after the mutation
		// against the one before it.
		check func(before, after string) bool
	}{
		{"RegisterSource", func() error {
			return m.RegisterSource(datasource.Definition{ID: "kept_xml", Kind: datasource.KindXML, Path: "kept.xml"})
		}, false, func(before, after string) bool { return after == before }},
		{"RegisterMapping", func() error {
			return m.RegisterMapping(mapping.Entry{
				AttributeID: "thing.product.brand", SourceID: "kept_xml",
				Rule: mapping.Rule{Code: "/catalog/watch/brand"},
			})
		}, true, func(_, after string) bool { return strings.Contains(after, `"kept_xml"`) }},
		{"SetClassKey", func() error { return m.SetClassKey("product", "thing.product.model") }, true, nil},
	} {
		var before strings.Builder
		if _, err := m.QueryTo(context.Background(), &before, "SELECT product", instance.FormatJSON); err != nil {
			t.Fatal(err)
		}
		warm := m.manager.CompiledRuleCount()
		if warm == 0 {
			t.Fatal("no compiled rules after a query")
		}
		if err := mutation.apply(); err != nil {
			t.Fatalf("%s: %v", mutation.name, err)
		}
		if got := m.PlanCacheLen(); mutation.flushes && got != 0 {
			t.Errorf("%s left plan cache len = %d, want 0", mutation.name, got)
		}
		if got := m.manager.CompiledRuleCount(); got != warm {
			t.Errorf("%s changed the compiled rules: %d, want %d", mutation.name, got, warm)
		}
		if mutation.check == nil {
			continue
		}
		var after strings.Builder
		if _, err := m.QueryTo(context.Background(), &after, "SELECT product", instance.FormatJSON); err != nil {
			t.Fatal(err)
		}
		if !mutation.check(before.String(), after.String()) {
			t.Errorf("%s: unexpected answer after it:\n--- before ---\n%s\n--- after ---\n%s", mutation.name, before.String(), after.String())
		}
	}
}

// TestStaleRuleAfterRemap is the remap regression test: after a query
// has warmed every cache layer (plan, schema, compiled rules),
// registering a new mapping for an already-queried attribute must
// surface the new rule's values on the very next query. A stale schema
// or plan would keep answering from the old rule set.
func TestStaleRuleAfterRemap(t *testing.T) {
	m, world := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 3, Seed: 23})
	before, err := m.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Matched) != 3 {
		t.Fatalf("warm query matched = %d, want 3", len(before.Matched))
	}

	world.Catalog.XML.MustAdd("remap.xml", "<catalog><watch><brand>RemapBrand</brand></watch></catalog>")
	if err := m.RegisterSource(datasource.Definition{ID: "remap_xml", Kind: datasource.KindXML, Path: "remap.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "remap_xml",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	}); err != nil {
		t.Fatal(err)
	}

	after, err := m.Query(context.Background(), "SELECT product WHERE brand='RemapBrand'")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Matched) != 1 {
		t.Fatalf("remapped query matched = %d, want 1 (stale rule set?)", len(after.Matched))
	}
	all, err := m.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Matched) != 4 {
		t.Errorf("post-remap full query matched = %d, want 4", len(all.Matched))
	}
}

// TestStalePushedPlanAfterRemap guards the planner rewrite cached with
// the plan: a constrained query caches pushed-down source plans
// (including rewritten SQL), and a mapping mutation must flush them. If a stale rewrite survived the remap, the same query text
// would keep extracting from the pre-mutation source list.
func TestStalePushedPlanAfterRemap(t *testing.T) {
	m, world := testMiddleware(t, workload.Spec{DBSources: 1, XMLSources: 1, RecordsPerSource: 3, Seed: 25})
	world.Catalog.XML.MustAdd("fix.xml", "<catalog><watch><brand>PinnedBrand</brand></watch></catalog>")
	if err := m.RegisterSource(datasource.Definition{ID: "fix_xml", Kind: datasource.KindXML, Path: "fix.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "fix_xml",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	}); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT product WHERE brand = 'PinnedBrand'"
	// Two runs: the first caches the planner's rewrite (pushdown
	// rewrites the DB source's SQL and attaches record filters), the
	// second is served from it.
	for i := 0; i < 2; i++ {
		res, err := m.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matched) != 1 {
			t.Fatalf("run %d matched = %d, want 1", i, len(res.Matched))
		}
	}

	world.Catalog.XML.MustAdd("remap2.xml", "<catalog><watch><brand>PinnedBrand</brand></watch></catalog>")
	if err := m.RegisterSource(datasource.Definition{ID: "remap2_xml", Kind: datasource.KindXML, Path: "remap2.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "remap2_xml",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	}); err != nil {
		t.Fatal(err)
	}

	// The identical query text must now see the new source: a stale
	// pushed-down plan would still carry the two-source schema.
	res, err := m.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 2 {
		t.Errorf("post-remap matched = %d, want 2 (stale pushed-down plan served?)", len(res.Matched))
	}
}

// TestConcurrentQueriesWithInvalidation races warm queries against
// catalog mutations; under -race this is the coherence counterpart to
// TestStatsConcurrentQueries. Every query must still succeed and the
// final state must reflect the last mutation.
func TestConcurrentQueriesWithInvalidation(t *testing.T) {
	m, world := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 4, Seed: 24})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := m.Query(context.Background(), "SELECT product"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		id := "late_" + string(rune('a'+i))
		world.Catalog.XML.MustAdd(id+".xml", "<catalog><watch><brand>Late"+strings.ToUpper(id)+"</brand></watch></catalog>")
		if err := m.RegisterSource(datasource.Definition{ID: id, Kind: datasource.KindXML, Path: id + ".xml"}); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterMapping(mapping.Entry{
			AttributeID: "thing.product.brand", SourceID: id,
			Rule: mapping.Rule{Code: "/catalog/watch/brand"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	res, err := m.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 8 {
		t.Errorf("final matched = %d, want 8 (4 seeded + 4 late)", len(res.Matched))
	}
}

// TestPlanSourcesUnderInvalidation races the cluster's two-step path —
// PlanMergeFree, then ExtractPlanSources on the plan it returned —
// against catalog mutations. A plan flushed between the two calls still
// extracts, against the catalog of the moment, and once the mutations
// are done the path sees every new source; under -race this covers the
// plan cache's index by plan pointer.
func TestPlanSourcesUnderInvalidation(t *testing.T) {
	m, world := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 4, Seed: 27})
	ctx := context.Background()
	seeded := []string{world.Definitions[0].ID}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				plan, _, err := m.PlanMergeFree(ctx, "SELECT product")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := m.ExtractPlanSources(ctx, plan, seeded); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ids := append([]string(nil), seeded...)
	for i := 0; i < 4; i++ {
		id := "pinned_" + string(rune('a'+i))
		world.Catalog.XML.MustAdd(id+".xml", "<catalog><watch><brand>Pinned</brand></watch></catalog>")
		if err := m.RegisterSource(datasource.Definition{ID: id, Kind: datasource.KindXML, Path: id + ".xml"}); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterMapping(mapping.Entry{
			AttributeID: "thing.product.brand", SourceID: id,
			Rule: mapping.Rule{Code: "/catalog/watch/brand"},
		}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	wg.Wait()
	plan, _, err := m.PlanMergeFree(ctx, "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.ExtractPlanSources(ctx, plan, ids)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.SourcesContacted != len(ids) {
		t.Errorf("sources contacted = %d, want %d (a stale schema served?)", rs.Stats.SourcesContacted, len(ids))
	}
}
