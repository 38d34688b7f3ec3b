package extract

import (
	"context"
	"fmt"
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

// TestInvalidateCacheDropsEverything pins what InvalidateCache must
// flush: compiled rules go to zero. Rule results are never cached, so
// every extraction, before and after invalidation, reads the backend.
func TestInvalidateCacheDropsEverything(t *testing.T) {
	m, backend := countingWorld(t)
	if _, err := m.Extract(context.Background(), []string{"thing.product.brand"}); err != nil {
		t.Fatal(err)
	}
	if m.CompiledRuleCount() == 0 {
		t.Error("no compiled rules after extraction")
	}
	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1", got)
	}

	m.InvalidateCache()
	if got := m.CompiledRuleCount(); got != 0 {
		t.Errorf("compiled rules after invalidation = %d", got)
	}
	if _, err := m.Extract(context.Background(), []string{"thing.product.brand"}); err != nil {
		t.Fatal(err)
	}
	if got := backend.calls.Load(); got != 2 {
		t.Errorf("backend calls after invalidation = %d, want 2", got)
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
		if _, err := m.ExtractQuery(ctx, plan); err != nil {
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
