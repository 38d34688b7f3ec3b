package extract

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasource"
	"repro/internal/mapping"
	"repro/internal/ontology"
	"repro/internal/xmlpath"
	"repro/internal/xmlstore"
)

// countingXML is an XML document getter that counts backend reads and
// can delay each one, so concurrent extractions have time to pile up on
// the singleflight leader.
type countingXML struct {
	calls atomic.Int64
	delay time.Duration
	docs  *xmlstore.Store
}

func (c *countingXML) Get(path string) (*xmlpath.Node, error) {
	c.calls.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.docs.Get(path)
}

func countingWorld(t *testing.T, delay time.Duration) (*Manager, *countingXML) {
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
	backend := &countingXML{delay: delay, docs: catalog.XML}
	m := NewManager(repo, Backends{XML: backend}, Options{CacheTTL: time.Minute})
	return m, backend
}

// TestSingleflightDedupesConcurrentFills is the dedup regression test:
// N concurrent extractions of one cold rule must cost exactly one
// backend call — one goroutine leads the cache fill, the rest share its
// result through the singleflight group, and stragglers hit the cache.
func TestSingleflightDedupesConcurrentFills(t *testing.T) {
	m, backend := countingWorld(t, 100*time.Millisecond)
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rs, err := m.Extract(context.Background(), []string{"thing.product.brand"})
			if err != nil {
				t.Error(err)
				return
			}
			if len(rs.Fragments) != 1 || rs.Fragments[0].Values[0] != "Seiko" {
				t.Errorf("fragments = %+v", rs.Fragments)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("backend calls = %d, want 1 (singleflight did not collapse the fills)", got)
	}
	// A warm follow-up stays answered from the cache.
	if _, err := m.Extract(context.Background(), []string{"thing.product.brand"}); err != nil {
		t.Fatal(err)
	}
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("backend calls after warm query = %d, want 1", got)
	}
}

// TestInvalidateCacheDropsEverything pins what InvalidateCache must
// flush: compiled rules and cached results both go to zero, and the
// next extraction pays a fresh backend round trip.
func TestInvalidateCacheDropsEverything(t *testing.T) {
	m, backend := countingWorld(t, 0)
	if _, err := m.Extract(context.Background(), []string{"thing.product.brand"}); err != nil {
		t.Fatal(err)
	}
	if m.CompiledRuleCount() == 0 {
		t.Error("no compiled rules after extraction")
	}
	if m.CachedRuleResults() == 0 {
		t.Error("no cached results after extraction")
	}
	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1", got)
	}

	m.InvalidateCache()
	if got := m.CompiledRuleCount(); got != 0 {
		t.Errorf("compiled rules after invalidation = %d", got)
	}
	if got := m.CachedRuleResults(); got != 0 {
		t.Errorf("cached results after invalidation = %d", got)
	}
	if _, err := m.Extract(context.Background(), []string{"thing.product.brand"}); err != nil {
		t.Fatal(err)
	}
	if got := backend.calls.Load(); got != 2 {
		t.Errorf("backend calls after invalidation = %d, want 2 (stale cache served?)", got)
	}
}
