package extract

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datasource"
	"repro/internal/mapping"
	"repro/internal/ontology"
	"repro/internal/s2sql"
	"repro/internal/workload"
	"repro/internal/xmlpath"
	"repro/internal/xmlstore"
)

// countingXML is an XML document getter that counts backend reads.
type countingXML struct {
	calls atomic.Int64
	docs  *xmlstore.Store
}

func (c *countingXML) Get(path string) (*xmlpath.Node, error) {
	c.calls.Add(1)
	return c.docs.Get(path)
}

func countingWorld(t *testing.T) (*Manager, *countingXML) {
	t.Helper()
	ont := ontology.Paper()
	reg := datasource.NewRegistry()
	catalog := datasource.NewCatalog()
	catalog.XML.MustAdd("catalog.xml", "<catalog><watch><brand>Seiko</brand></watch></catalog>")
	must(t, reg.Register(datasource.Definition{ID: "xml_sf", Kind: datasource.KindXML, Path: "catalog.xml"}))
	repo := mapping.NewRepository(ont, reg)
	repo.MustRegister(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "xml_sf",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	})
	backend := &countingXML{docs: catalog.XML}
	m := NewManager(repo, Backends{XML: backend}, Options{})
	return m, backend
}

// TestCompiledRulesOutliveRemap pins the compiled-rule cache's
// contract: nothing flushes it. Artifacts are keyed by rule text, so a
// mapping registered after a run compiles its own entry beside the
// existing one, and rule results are never cached — every extraction,
// before and after the remap, reads the backend.
func TestCompiledRulesOutliveRemap(t *testing.T) {
	m, backend := countingWorld(t)
	ctx := context.Background()
	attrs := []string{"thing.product.brand"}
	if _, err := m.Extract(ctx, attrs); err != nil {
		t.Fatal(err)
	}
	if got := m.CompiledRuleCount(); got != 1 {
		t.Fatalf("compiled rules after extraction = %d, want 1", got)
	}
	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1", got)
	}

	backend.docs.MustAdd("more.xml", "<catalog><watch><brand>Orient</brand></watch></catalog>")
	must(t, m.repo.Sources().Register(datasource.Definition{ID: "xml_more", Kind: datasource.KindXML, Path: "more.xml"}))
	must(t, m.repo.Register(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "xml_more",
		Rule: mapping.Rule{Code: "//watch/brand"},
	}))
	rs, err := m.Extract(ctx, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CompiledRuleCount(); got != 2 {
		t.Errorf("compiled rules after remap = %d, want 2 (the old rule kept, the new one added)", got)
	}
	if got := backend.calls.Load(); got != 3 {
		t.Errorf("backend calls after remap = %d, want 3 (both documents read live)", got)
	}
	if got := fmt.Sprint(rs.Fragments); !strings.Contains(got, "Orient") || !strings.Contains(got, "Seiko") {
		t.Errorf("fragments after remap = %s, want both sources' brands", got)
	}
}

// TestBatchFiltersShareDocument runs two queries whose record filters
// differ over one XML document in one batch. The document is read once
// for both, and each query's filter compacts its own fragments in
// place, so each answer must equal the query's standalone run and the
// two must split the document's records between them.
func TestBatchFiltersShareDocument(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{XMLSources: 1, RecordsPerSource: 12, Seed: 9})
	reg := datasource.NewRegistry()
	for _, def := range world.Definitions {
		must(t, reg.Register(def))
	}
	repo := mapping.NewRepository(world.Ontology, reg)
	for _, e := range world.Entries {
		must(t, repo.Register(e))
	}
	backend := &countingXML{docs: world.Catalog.XML}
	m := NewManager(repo, Backends{XML: backend}, Options{})
	ctx := context.Background()

	var schemas []*Schema
	for _, q := range []string{"SELECT product WHERE price < 300", "SELECT product WHERE price >= 300"} {
		plan, err := s2sql.ParseAndPlan(q, world.Ontology)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Schema(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Plans) != 1 || len(s.Plans[0].Filters) == 0 {
			t.Fatalf("%s: planner attached no record filter: %+v", q, s.Plans)
		}
		schemas = append(schemas, s)
	}
	sets, errs := m.ExtractQueryBatch(ctx, schemas)
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("backend reads for the batch = %d, want 1 shared read", got)
	}
	kept := 0
	for i, s := range schemas {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := m.ExtractQuery(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(sets[i].Fragments); got != fmt.Sprint(want.Fragments) {
			t.Errorf("query %d in the batch: fragments %s, standalone %s", i, got, fmt.Sprint(want.Fragments))
		}
		for _, f := range sets[i].Fragments {
			if strings.HasSuffix(f.AttributeID, ".price") {
				kept += len(f.Values)
			}
		}
	}
	if kept != 12 {
		t.Errorf("the two filters kept %d price values between them, want all 12 records", kept)
	}
}

// TestCompiledCacheStaysBounded runs thousands of queries that differ
// only in a literal. Pushdown writes each literal into the database
// rules' SQL, so every query compiles new rules; the compiled-rule cache
// must flush at its bound instead of keeping them all.
func TestCompiledCacheStaysBounded(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{DBSources: 2, XMLSources: 1, RecordsPerSource: 5, Seed: 7})
	reg := datasource.NewRegistry()
	for _, def := range world.Definitions {
		must(t, reg.Register(def))
	}
	repo := mapping.NewRepository(world.Ontology, reg)
	for _, e := range world.Entries {
		must(t, repo.Register(e))
	}
	m := NewManager(repo, FromCatalog(world.Catalog), Options{})
	ctx := context.Background()
	const queries = 3000
	peak := 0
	for i := 0; i < queries; i++ {
		plan, err := s2sql.ParseAndPlan(fmt.Sprintf("SELECT product WHERE brand = 'B%d'", i), world.Ontology)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := extractQuery(ctx, m, plan); err != nil {
			t.Fatal(err)
		}
		n := m.CompiledRuleCount()
		if n > compiledCacheBound {
			t.Fatalf("after %d queries the compiled-rule cache holds %d rules, bound %d", i+1, n, compiledCacheBound)
		}
		peak = max(peak, n)
	}
	// The workload must be one that would overflow an unbounded cache.
	if peak < compiledCacheBound/2 {
		t.Fatalf("peak compiled rules = %d: the queries did not compile new rules per literal", peak)
	}
}
