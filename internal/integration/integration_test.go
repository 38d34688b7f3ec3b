// Package integration exercises the S2S middleware across module
// boundaries: the full Figure-1 pipeline against ground truth, failure
// injection on autonomous sources, configuration persistence, and the
// network deployment with semantic post-processing.
package integration

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/sparql"
	"repro/internal/transport"
	"repro/internal/workload"
)

func build(t *testing.T, spec workload.Spec, opts extract.Options) (*core.Middleware, *workload.World) {
	t.Helper()
	world := workload.MustGenerate(spec)
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	return mw, world
}

// TestFullPipelineAtScale runs several query shapes over a larger world and
// checks every count against the generator's ground truth.
func TestFullPipelineAtScale(t *testing.T) {
	mw, world := build(t, workload.Spec{
		DBSources: 3, XMLSources: 3, WebSources: 3, TextSources: 3,
		RecordsPerSource: 50, Seed: 61,
	}, extract.Options{})
	ctx := context.Background()

	cases := []struct {
		query string
		pred  func(workload.Record) bool
	}{
		{"SELECT product", func(workload.Record) bool { return true }},
		{"SELECT product WHERE brand='Seiko'", func(r workload.Record) bool { return r.Brand == "Seiko" }},
		{"SELECT product WHERE price < 250", func(r workload.Record) bool { return r.Price < 250 }},
		{"SELECT product WHERE brand='Casio' AND case='resin'",
			func(r workload.Record) bool { return r.Brand == "Casio" && r.Case == "resin" }},
		{"SELECT product WHERE brand LIKE 'c%'", func(r workload.Record) bool {
			return strings.HasPrefix(r.Brand, "C")
		}},
		{"SELECT watch WHERE water_resistance >= 100 AND price > 100", func(r workload.Record) bool {
			return r.WaterResistance >= 100 && r.Price > 100 && !strings.HasPrefix(r.SourceID, "web_")
		}},
	}
	for _, c := range cases {
		res, err := mw.Query(ctx, c.query)
		if err != nil {
			t.Errorf("%s: %v", c.query, err)
			continue
		}
		if len(res.Errors) > 0 {
			t.Errorf("%s: errors %v", c.query, res.Errors)
		}
		want := world.CountMatching(c.pred)
		if len(res.Matched) != want {
			t.Errorf("%s: matched %d, ground truth %d", c.query, len(res.Matched), want)
		}
	}
}

// TestAllFormatsParseBack serializes one result in every format and parses
// the RDF ones back, checking triple-set agreement.
func TestAllFormatsParseBack(t *testing.T) {
	mw, _ := build(t, workload.Spec{DBSources: 1, XMLSources: 1, RecordsPerSource: 20, Seed: 62}, extract.Options{})
	res, err := mw.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	gen := mw.Generator()

	var owlOut, ttlOut, ntOut strings.Builder
	for out, f := range map[*strings.Builder]instance.Format{&owlOut: instance.FormatOWL, &ttlOut: instance.FormatTurtle, &ntOut: instance.FormatNTriples} {
		if err := gen.Serialize(out, res, f); err != nil {
			t.Fatal(err)
		}
	}
	gOWL, err := owl.ParseRDFXML(strings.NewReader(owlOut.String()))
	if err != nil {
		t.Fatalf("owl: %v", err)
	}
	gTTL, err := rdf.ParseTurtle(strings.NewReader(ttlOut.String()))
	if err != nil {
		t.Fatalf("turtle: %v", err)
	}
	gNT, err := rdf.ParseNTriples(strings.NewReader(ntOut.String()))
	if err != nil {
		t.Fatalf("ntriples: %v", err)
	}
	if !gOWL.Equal(gTTL) || !gTTL.Equal(gNT) {
		t.Fatalf("RDF serializations disagree: owl=%d ttl=%d nt=%d triples",
			gOWL.Len(), gTTL.Len(), gNT.Len())
	}
}

// flakyFetcher fails a deterministic fraction of fetches.
type flakyFetcher struct {
	mu    sync.Mutex
	inner interface {
		Fetch(string) (string, error)
	}
	n        int
	failEach int // every n-th fetch fails
}

func (f *flakyFetcher) Fetch(_ context.Context, url string) (string, error) {
	f.mu.Lock()
	f.n++
	n := f.n
	f.mu.Unlock()
	if f.failEach > 0 && n%f.failEach == 0 {
		return "", fmt.Errorf("injected network failure #%d", n)
	}
	return f.inner.Fetch(url)
}

// TestFailureInjectionIsolation: a mix of healthy and failing sources must
// produce complete answers from the healthy ones plus per-source errors —
// never a global failure.
func TestFailureInjectionIsolation(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 10, Seed: 63,
	})
	backends := extract.FromCatalog(world.Catalog)
	// Every web fetch fails.
	backends.Pages = (&flakyFetcher{inner: world.Catalog, failEach: 1}).Fetch
	mw, err := core.New(core.Config{Ontology: world.Ontology, Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	res, err := mw.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	healthy := world.CountMatching(func(r workload.Record) bool {
		return !strings.HasPrefix(r.SourceID, "web_")
	})
	if len(res.Matched) != healthy {
		t.Errorf("matched = %d, want %d from healthy sources", len(res.Matched), healthy)
	}
	if len(res.Errors) == 0 {
		t.Error("no errors reported for failing sources")
	}
	for _, e := range res.Errors {
		if !strings.HasPrefix(e.SourceID, "web_") {
			t.Errorf("error attributed to healthy source: %v", e)
		}
	}
}

// TestRetriesMaskTransientFailures: with retries enabled, a 1-in-3 failure
// rate must not lose data.
func TestRetriesMaskTransientFailures(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{WebSources: 3, RecordsPerSource: 5, Seed: 64})
	backends := extract.FromCatalog(world.Catalog)
	backends.Pages = (&flakyFetcher{inner: world.Catalog, failEach: 3}).Fetch
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: backends,
		Extract:  extract.Options{Retries: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	res, err := mw.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("errors despite retries: %v", res.Errors)
	}
	if len(res.Matched) != 15 {
		t.Errorf("matched = %d, want 15", len(res.Matched))
	}
}

// TestConfigServeSPARQL is the full operational loop: capture config,
// rebuild the middleware from it, serve it over HTTP, and run a reasoned
// SPARQL query remotely.
func TestConfigServeSPARQL(t *testing.T) {
	mw, world := build(t, workload.Spec{DBSources: 1, XMLSources: 1, RecordsPerSource: 12, Seed: 65}, extract.Options{})
	cfg, err := config.FromMiddleware(mw)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := cfg.BuildMiddleware(core.Config{Backends: extract.FromCatalog(world.Catalog)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(transport.NewServer(rebuilt))
	defer srv.Close()
	client := transport.NewClient(srv.URL, nil)

	resp, err := client.SPARQL(context.Background(), transport.SPARQLRequest{
		SPARQL: `PREFIX ont: <http://s2s.uma.pt/watch#> SELECT ?x WHERE { ?x a ont:product . }`,
		Reason: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Bindings) != len(world.Records) {
		t.Fatalf("bindings = %d, want %d", len(resp.Bindings), len(world.Records))
	}
}

// TestConcurrentQueriesAndRegistration: queries racing with new-source
// registration must each see a consistent snapshot and never error.
func TestConcurrentQueriesAndRegistration(t *testing.T) {
	mw, world := build(t, workload.Spec{XMLSources: 1, RecordsPerSource: 10, Seed: 66}, extract.Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Query workers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := mw.Query(ctx, "SELECT product")
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(res.Matched) < 10 {
					t.Errorf("matched dropped to %d", len(res.Matched))
					return
				}
			}
		}()
	}

	// Registration worker: adds 20 new XML sources.
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("conc-%02d.xml", i)
		world.Catalog.XML.MustAdd(path, "<catalog><watch><brand>Orient</brand></watch></catalog>")
		if err := mw.RegisterSource(datasource.Definition{
			ID: fmt.Sprintf("conc_%02d", i), Kind: datasource.KindXML, Path: path,
		}); err != nil {
			t.Fatal(err)
		}
		if err := mw.RegisterMapping(mapping.Entry{
			AttributeID: "thing.product.brand", SourceID: fmt.Sprintf("conc_%02d", i),
			Rule: mapping.Rule{Code: "/catalog/watch/brand"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	res, err := mw.Query(ctx, "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 30 {
		t.Errorf("final matched = %d, want 30", len(res.Matched))
	}
}

// TestCacheCoherenceAfterInvalidation: data values are extracted live on
// every query, so a change to a source's content is visible on the very
// next extraction, with no invalidation in between.
func TestCacheCoherenceAfterInvalidation(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{XMLSources: 1, RecordsPerSource: 3, Seed: 67})
	reg := datasource.NewRegistry()
	repo := mapping.NewRepository(world.Ontology, reg)
	for _, d := range world.Definitions {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range world.Entries {
		repo.MustRegister(e)
	}
	mgr := extract.NewManager(repo, extract.FromCatalog(world.Catalog), extract.Options{})
	ctx := context.Background()
	attrs := []string{"thing.product.brand"}

	first, err := mgr.Extract(ctx, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Fragments) != 1 || len(first.Fragments[0].Values) != 3 {
		t.Fatalf("first extraction = %+v, want 3 brands", first.Fragments)
	}
	// The source changes underneath.
	world.Catalog.XML.MustAdd("catalog-000.xml", "<catalog><watch><brand>NewBrand</brand></watch></catalog>")
	next, err := mgr.Extract(ctx, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Fragments[0].Values) != 1 || next.Fragments[0].Values[0] != "NewBrand" {
		t.Fatalf("values after the source changed = %v, want [NewBrand]", next.Fragments[0].Values)
	}
}

// TestReasonedSubclassAnswerAgainstGroundTruth ties reasoning back to the
// generator: products entailed via watch ⊑ product equal the record count.
func TestReasonedSubclassAnswerAgainstGroundTruth(t *testing.T) {
	mw, world := build(t, workload.Spec{TextSources: 2, RecordsPerSource: 15, Seed: 68}, extract.Options{})
	res, err := mw.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	graph, err := mw.Generator().ToGraph(res)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := reason.Materialize(world.Ontology.ToGraph(), graph)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sparql.Select(materialized, `PREFIX ont: <http://s2s.uma.pt/watch#>
		SELECT DISTINCT ?x WHERE { ?x a ont:thing . ?x ont:thing_product_brand ?b . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Bindings) != len(world.Records) {
		t.Fatalf("reasoned thing count = %d, want %d", len(out.Bindings), len(world.Records))
	}
}
