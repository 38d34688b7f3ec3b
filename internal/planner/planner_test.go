package planner_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/planner"
	"repro/internal/s2sql"
	"repro/internal/workload"
)

func newWorld(t *testing.T, spec workload.Spec) (*workload.World, *core.Middleware) {
	t.Helper()
	world := workload.MustGenerate(spec)
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: extract.FromCatalog(world.Catalog),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	return world, mw
}

// rewriteFor plans a query and runs the planner over the middleware's
// extraction schema, exactly as ExtractQuery does.
func rewriteFor(t *testing.T, mw *core.Middleware, query string) planner.Result {
	t.Helper()
	plan, err := s2sql.ParseAndPlan(query, mw.Ontology())
	if err != nil {
		t.Fatal(err)
	}
	repo := mw.Mappings()
	plans, _, err := repo.Schema(plan.AttributeIDs())
	if err != nil {
		t.Fatal(err)
	}
	return planner.Rewrite(repo.Ontology(), repo.ClassKeys(), plan, plans)
}

// decisionFor returns the single decision recorded for sourceID whose
// member list includes attr ("" matches any group of the source).
func decisionFor(t *testing.T, res planner.Result, sourceID, attr string) planner.Decision {
	t.Helper()
	var found []planner.Decision
	for _, d := range res.Decisions {
		if d.SourceID != sourceID {
			continue
		}
		if attr == "" {
			found = append(found, d)
			continue
		}
		for _, a := range d.Group {
			if a == attr {
				found = append(found, d)
				break
			}
		}
	}
	if len(found) != 1 {
		t.Fatalf("decisions for %s/%s = %d (%v), want 1", sourceID, attr, len(found), found)
	}
	return found[0]
}

// TestPlannerDecisions drives one scenario per source type through the
// planner and asserts where pushdown fires and where it declines.
func TestPlannerDecisions(t *testing.T) {
	_, mw := newWorld(t, workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 6, Seed: 7,
	})

	t.Run("db same-row scan gets native SQL", func(t *testing.T) {
		res := rewriteFor(t, mw, "SELECT product WHERE brand = 'Seiko'")
		d := decisionFor(t, res, "db_000", "thing.product.brand")
		if d.Action != planner.ActionFilterSQL {
			t.Fatalf("db decision = %s (%s), want %s", d.Action, d.Detail, planner.ActionFilterSQL)
		}
		if !strings.Contains(d.Detail, "LIKE '%Seiko%'") {
			t.Errorf("pushed predicate = %q, want a widened LIKE", d.Detail)
		}
		// The rewritten plan carries pushed SQL with the original preserved
		// as fallback, on every group member uniformly.
		var sp *mapping.SourcePlan
		for i := range res.Plans {
			if res.Plans[i].Source.ID == "db_000" {
				sp = &res.Plans[i]
			}
		}
		if sp == nil {
			t.Fatal("db_000 missing from rewritten plans")
		}
		pushed := 0
		for _, e := range sp.Entries {
			if e.AttributeID == "thing.provider.name" {
				if e.Rule.Fallback != "" {
					t.Errorf("provider entry was rewritten: %q", e.Rule.Code)
				}
				continue
			}
			if e.Rule.Fallback == "" || !strings.Contains(e.Rule.Code, "LIKE '%Seiko%'") {
				t.Errorf("entry %s not uniformly rewritten: code=%q fallback=%q",
					e.AttributeID, e.Rule.Code, e.Rule.Fallback)
			}
			pushed++
		}
		if pushed == 0 {
			t.Error("no db entries were rewritten")
		}
		if len(sp.Filters) != 1 {
			t.Fatalf("db_000 filters = %d, want 1", len(sp.Filters))
		}
		if res.Stats.PushdownApplied == 0 {
			t.Error("PushdownApplied = 0")
		}
	})

	t.Run("numeric condition filters without native SQL", func(t *testing.T) {
		res := rewriteFor(t, mw, "SELECT product WHERE water_resistance >= 100")
		d := decisionFor(t, res, "db_000", "thing.product.brand")
		if d.Action != planner.ActionFilter {
			t.Fatalf("db decision = %s (%s), want %s", d.Action, d.Detail, planner.ActionFilter)
		}
		for _, sp := range res.Plans {
			for _, e := range sp.Entries {
				if e.Rule.Fallback != "" {
					t.Errorf("numeric condition rewrote SQL of %s/%s", sp.Source.ID, e.AttributeID)
				}
			}
		}
	})

	t.Run("xml shared record scope filters", func(t *testing.T) {
		res := rewriteFor(t, mw, "SELECT product WHERE brand = 'Seiko'")
		d := decisionFor(t, res, "xml_000", "thing.product.brand")
		if d.Action != planner.ActionFilter {
			t.Fatalf("xml decision = %s (%s), want %s", d.Action, d.Detail, planner.ActionFilter)
		}
	})

	t.Run("web and text filter at fragment level only", func(t *testing.T) {
		res := rewriteFor(t, mw, "SELECT product WHERE brand = 'Seiko'")
		for _, src := range []string{"web_000", "txt_000"} {
			d := decisionFor(t, res, src, "thing.product.brand")
			if d.Action != planner.ActionFilter {
				t.Errorf("%s decision = %s (%s), want %s", src, d.Action, d.Detail, planner.ActionFilter)
			}
		}
	})

	t.Run("provider group declines: not the queried class", func(t *testing.T) {
		res := rewriteFor(t, mw, "SELECT product WHERE brand = 'Seiko'")
		d := decisionFor(t, res, "db_000", "thing.provider.name")
		if d.Action != planner.ActionDecline || !strings.Contains(d.Detail, "not a product") {
			t.Errorf("provider decision = %s (%s), want decline", d.Action, d.Detail)
		}
	})

	t.Run("relation-target class declines", func(t *testing.T) {
		res := rewriteFor(t, mw, "SELECT provider WHERE name = 'Acme'")
		d := decisionFor(t, res, "db_000", "thing.provider.name")
		if d.Action != planner.ActionDecline || !strings.Contains(d.Detail, "relation target") {
			t.Errorf("provider decision = %s (%s), want relation-target decline", d.Action, d.Detail)
		}
	})
}

// TestPlannerCrossRecordXMLDeclines maps two attributes of one lineage
// to different XML record scopes: their value lists do not correlate
// positionally, so pushing a filter across them would be unsound and
// the planner must decline.
func TestPlannerCrossRecordXMLDeclines(t *testing.T) {
	_, mw := newWorld(t, workload.Spec{XMLSources: 1, RecordsPerSource: 4, Seed: 3})
	if err := mw.RegisterSource(datasource.Definition{
		ID: "xmlx", Kind: datasource.KindXML, Path: "cross.xml",
	}); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "xmlx",
		Rule: mapping.Rule{Language: mapping.LangXPath, Code: "/catalog/watch/brand"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.model", SourceID: "xmlx",
		Rule: mapping.Rule{Language: mapping.LangXPath, Code: "/archive/item/model"},
	}); err != nil {
		t.Fatal(err)
	}
	res := rewriteFor(t, mw, "SELECT product WHERE brand = 'Seiko'")
	d := decisionFor(t, res, "xmlx", "thing.product.brand")
	if d.Action != planner.ActionDecline || !strings.Contains(d.Detail, "different record scopes") {
		t.Errorf("cross-record decision = %s (%s), want record-scope decline", d.Action, d.Detail)
	}
}

// TestPlannerPrune covers projection pruning: a source whose group maps
// no entry for a constrained attribute is dropped before extraction.
func TestPlannerPrune(t *testing.T) {
	// Web sources map brand/model/case/price but not water_resistance.
	_, mw := newWorld(t, workload.Spec{
		DBSources: 1, WebSources: 1, RecordsPerSource: 5, Seed: 11,
	})
	res := rewriteFor(t, mw, "SELECT product WHERE water_resistance >= 100 AND brand = 'Seiko'")
	d := decisionFor(t, res, "web_000", "thing.product.brand")
	if d.Action != planner.ActionPrune {
		t.Fatalf("web decision = %s (%s), want %s", d.Action, d.Detail, planner.ActionPrune)
	}
	if res.Stats.EntriesPruned != 4 {
		t.Errorf("EntriesPruned = %d, want 4", res.Stats.EntriesPruned)
	}
	for _, sp := range res.Plans {
		if sp.Source.ID != "web_000" {
			continue
		}
		// Only the single-record provider entry survives.
		if len(sp.Entries) != 1 || sp.Entries[0].AttributeID != "thing.provider.name" {
			t.Errorf("web_000 surviving entries = %v", sp.Entries)
		}
	}

	// A condition whose evaluation can error, ordered before the missing
	// attribute, blocks the prune: the error must still surface.
	res = rewriteFor(t, mw, "SELECT product WHERE price > 10 AND water_resistance >= 100")
	d = decisionFor(t, res, "web_000", "thing.product.brand")
	if d.Action == planner.ActionPrune {
		t.Errorf("prune fired despite error-capable earlier condition (%s)", d.Detail)
	}
}

// TestPlannerPrunesWholeSource drops a source every entry of which is
// prunable.
func TestPlannerPrunesWholeSource(t *testing.T) {
	_, mw := newWorld(t, workload.Spec{DBSources: 1, RecordsPerSource: 4, Seed: 5})
	if err := mw.RegisterSource(datasource.Definition{
		ID: "txtonly", Kind: datasource.KindText, Path: "brands.txt",
	}); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "txtonly",
		Rule: mapping.Rule{Language: mapping.LangRegex, Code: `brand: (\w+)`},
	}); err != nil {
		t.Fatal(err)
	}
	res := rewriteFor(t, mw, "SELECT product WHERE water_resistance >= 100")
	if res.Stats.SourcesPruned != 1 {
		t.Errorf("SourcesPruned = %d, want 1", res.Stats.SourcesPruned)
	}
	for _, sp := range res.Plans {
		if sp.Source.ID == "txtonly" {
			t.Error("txtonly still in rewritten plans")
		}
	}
}

// TestPlannerClassKeyDeclines registers a class key on the queried
// class: instances then merge across sources before the residual filter
// runs, so dropping records at one source could starve a merge and the
// planner must keep its hands off.
func TestPlannerClassKeyDeclines(t *testing.T) {
	_, mw := newWorld(t, workload.Spec{DBSources: 1, RecordsPerSource: 4, Seed: 9})
	if err := mw.SetClassKey("product", "thing.product.model"); err != nil {
		t.Fatal(err)
	}
	res := rewriteFor(t, mw, "SELECT product WHERE brand = 'Seiko'")
	d := decisionFor(t, res, "db_000", "thing.product.brand")
	if d.Action != planner.ActionDecline || !strings.Contains(d.Detail, "class key") {
		t.Errorf("decision = %s (%s), want class-key decline", d.Action, d.Detail)
	}
}

// TestPushdownEquivalence is the soundness fixture: every query must
// produce byte-identical serialized results and identical error lists
// with pushdown enabled and disabled, across all source types.
func TestPushdownEquivalence(t *testing.T) {
	spec := workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 12, Seed: 21,
	}
	world := workload.MustGenerate(spec)
	build := func(disable bool) *core.Middleware {
		mw, err := core.New(core.Config{
			Ontology: world.Ontology,
			Backends: extract.FromCatalog(world.Catalog),
			Extract:  extract.Options{DisablePushdown: disable},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := world.Apply(mw); err != nil {
			t.Fatal(err)
		}
		return mw
	}
	pushed, plain := build(false), build(true)

	queries := []string{
		"SELECT product",
		"SELECT product WHERE brand = 'Seiko'",
		"SELECT product WHERE brand LIKE 'sei%'",
		"SELECT product WHERE brand = 'Seiko' AND case = 'stainless-steel'",
		"SELECT watch WHERE water_resistance >= 100",
		"SELECT product WHERE price > 100 AND brand = 'Seiko'",
		"SELECT product WHERE brand = 'NoSuchBrand'",
		"SELECT provider WHERE name LIKE '%a%'",
		"SELECT product WHERE water_resistance >= 100 AND brand LIKE '%s%'",
	}
	ctx := context.Background()
	for _, q := range queries {
		for _, format := range []instance.Format{instance.FormatText, instance.FormatJSON} {
			a, errA := pushed.QueryString(ctx, q, format)
			b, errB := plain.QueryString(ctx, q, format)
			if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
				t.Fatalf("%s: error divergence: pushdown=%v plain=%v", q, errA, errB)
			}
			if a != b {
				t.Errorf("%s (%v): output diverges with pushdown\n--- pushdown ---\n%s\n--- plain ---\n%s", q, format, a, b)
			}
		}
		ra, errA := pushed.Query(ctx, q)
		rb, errB := plain.Query(ctx, q)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", q, errA, errB)
		}
		if got, want := fmt.Sprint(ra.Errors), fmt.Sprint(rb.Errors); got != want {
			t.Errorf("%s: source errors diverge: %s vs %s", q, got, want)
		}
	}
}

// TestPushdownShrinksWork asserts the optimization actually optimizes:
// on a selective query the pushed path extracts fewer values than the
// plain path.
func TestPushdownShrinksWork(t *testing.T) {
	spec := workload.Spec{
		DBSources: 1, XMLSources: 1, TextSources: 1,
		RecordsPerSource: 30, Seed: 13,
	}
	world := workload.MustGenerate(spec)
	count := func(disable bool) int {
		mgr := extract.NewManager(
			coreRepo(t, world),
			extract.FromCatalog(world.Catalog),
			extract.Options{DisablePushdown: disable},
		)
		plan, err := s2sql.ParseAndPlan("SELECT product WHERE brand = 'Seiko'", world.Ontology)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := mgr.Schema(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := mgr.ExtractQuery(context.Background(), schema)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Errors) > 0 {
			t.Fatalf("extraction errors: %v", rs.Errors)
		}
		return rs.Stats.ValuesExtracted
	}
	pushed, plain := count(false), count(true)
	if pushed >= plain {
		t.Errorf("pushdown extracted %d values, plain %d — no reduction", pushed, plain)
	}
}

func coreRepo(t *testing.T, world *workload.World) *mapping.Repository {
	t.Helper()
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: extract.FromCatalog(world.Catalog),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	return mw.Mappings()
}
