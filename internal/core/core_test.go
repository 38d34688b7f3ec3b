package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/workload"
)

func testMiddleware(t *testing.T, spec workload.Spec) (*Middleware, *workload.World) {
	t.Helper()
	world := workload.MustGenerate(spec)
	m, err := NewWithCatalog(world.Ontology, world.Catalog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(m); err != nil {
		t.Fatal(err)
	}
	return m, world
}

// TestEndToEndPaperQuery runs the full pipeline of Figure 1 over all four
// source kinds with the paper's §2.5 query.
func TestEndToEndPaperQuery(t *testing.T) {
	m, world := testMiddleware(t, workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 25, Seed: 11,
	})
	res, err := m.Query(context.Background(), "SELECT product WHERE brand='Seiko' AND case='stainless-steel'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	want := world.CountMatching(func(r workload.Record) bool {
		return r.Brand == "Seiko" && r.Case == "stainless-steel"
	})
	if len(res.Matched) != want {
		t.Fatalf("matched = %d, want %d (ground truth)", len(res.Matched), want)
	}
	for _, in := range res.Matched {
		if in.Value("thing.product.brand") != "Seiko" {
			t.Errorf("instance %s brand = %q", in.ID, in.Value("thing.product.brand"))
		}
		if in.Value("thing.product.watch.case") != "stainless-steel" {
			t.Errorf("instance %s case = %q", in.ID, in.Value("thing.product.watch.case"))
		}
	}
	// Providers ride along as related instances.
	if len(res.Matched) > 0 && len(res.Related) == 0 {
		t.Error("no related provider instances")
	}
	for _, rel := range res.Related {
		if rel.Class.Name != "provider" {
			t.Errorf("related class = %s", rel.Class.Name)
		}
	}
}

func TestEndToEndNumericQuery(t *testing.T) {
	m, world := testMiddleware(t, workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 30, Seed: 5,
	})
	res, err := m.Query(context.Background(), "SELECT product WHERE price < 100")
	if err != nil {
		t.Fatal(err)
	}
	want := world.CountMatching(func(r workload.Record) bool { return r.Price < 100 })
	if len(res.Matched) != want {
		t.Fatalf("matched = %d, want %d", len(res.Matched), want)
	}
	// water_resistance only exists on DB/XML/text sources (web pages do not
	// publish it); querying it excludes web records.
	res2, err := m.Query(context.Background(), "SELECT watch WHERE water_resistance >= 100")
	if err != nil {
		t.Fatal(err)
	}
	want2 := world.CountMatching(func(r workload.Record) bool {
		return r.WaterResistance >= 100 && !strings.HasPrefix(r.SourceID, "web_")
	})
	if len(res2.Matched) != want2 {
		t.Fatalf("matched = %d, want %d", len(res2.Matched), want2)
	}
}

func TestQueryOWLOutputParses(t *testing.T) {
	m, _ := testMiddleware(t, workload.Spec{DBSources: 1, RecordsPerSource: 10, Seed: 2})
	var out strings.Builder
	if _, err := m.QueryTo(context.Background(), &out, "SELECT product", instance.FormatOWL); err != nil {
		t.Fatal(err)
	}
	g, err := owl.ParseRDFXML(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("OWL output unparseable: %v", err)
	}
	individuals := g.Subjects(rdf.RDFType, owl.NamedIndividual)
	if len(individuals) == 0 {
		t.Error("no named individuals in OWL output")
	}
}

func TestQueryAllFormats(t *testing.T) {
	m, _ := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 5, Seed: 3})
	for _, f := range []instance.Format{
		instance.FormatOWL, instance.FormatTurtle, instance.FormatNTriples,
		instance.FormatXML, instance.FormatJSON, instance.FormatText,
	} {
		var out strings.Builder
		if _, err := m.QueryTo(context.Background(), &out, "SELECT product", f); err != nil {
			t.Errorf("format %s: %v", f, err)
			continue
		}
		if out.Len() == 0 {
			t.Errorf("format %s: empty output", f)
		}
	}
}

func TestQueryParseErrorSurfaces(t *testing.T) {
	m, _ := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 1, Seed: 1})
	if _, err := m.Query(context.Background(), "SELECT product FROM x"); err == nil {
		t.Error("FROM accepted")
	}
	if _, err := m.Query(context.Background(), "SELECT nosuchclass"); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m, _ := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 5, Seed: 4})
	for i := 0; i < 3; i++ {
		if _, err := m.Query(context.Background(), "SELECT product"); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.Queries != 3 || s.Instances != 15 {
		t.Errorf("stats = %+v", s)
	}
	if s.PlanTime <= 0 || s.ExtractTime <= 0 || s.GenerateTime <= 0 {
		t.Errorf("timings not recorded: %+v", s)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil ontology accepted")
	}
}

func TestAccessorsAndQueryTo(t *testing.T) {
	m, _ := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 3, Seed: 12})
	if m.Ontology() == nil || m.Sources() == nil || m.Mappings() == nil || m.Generator() == nil {
		t.Fatal("nil accessor")
	}
	if err := m.SetClassKey("product", "thing.product.model"); err != nil {
		t.Fatal(err)
	}
	if got := m.Mappings().ClassKey("product"); got != "thing.product.model" {
		t.Errorf("class key = %q", got)
	}
	var buf strings.Builder
	res, err := m.QueryTo(context.Background(), &buf, "SELECT product", instance.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 3 || !strings.Contains(buf.String(), "\"matched\"") {
		t.Errorf("QueryTo result = %d matched, output %.80q", len(res.Matched), buf.String())
	}
	// QueryTo propagates parse errors.
	if _, err := m.QueryTo(context.Background(), &buf, "SELECT nosuch", instance.FormatJSON); err == nil {
		t.Error("bad query accepted")
	}
	// Without a breaker, SourceHealth is nil.
	if m.SourceHealth() != nil {
		t.Error("SourceHealth non-nil without breaker")
	}
}

func TestDeadSourceDoesNotBlockOthers(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{XMLSources: 1, RecordsPerSource: 5, Seed: 6})
	m, err := NewWithCatalog(world.Ontology, world.Catalog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(m); err != nil {
		t.Fatal(err)
	}
	// A web source whose page was never published.
	if err := m.RegisterSource(datasource.Definition{ID: "dead_web", Kind: datasource.KindWeb, URL: "http://dead.example/x"}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "dead_web",
		Rule: mapping.Rule{Code: `var brand = Text(GetURL("http://dead.example/x"))`},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 5 {
		t.Errorf("matched = %d, want 5 from the healthy source", len(res.Matched))
	}
	if len(res.Errors) != 1 || res.Errors[0].SourceID != "dead_web" {
		t.Errorf("errors = %v", res.Errors)
	}
}

func TestAddingSourceNeedsOnlyMappings(t *testing.T) {
	// The E8 claim: integrating a new source is registration-only, no new
	// code paths. Start with one source, add another at runtime.
	world := workload.MustGenerate(workload.Spec{XMLSources: 1, RecordsPerSource: 3, Seed: 8})
	m, err := NewWithCatalog(world.Ontology, world.Catalog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(m); err != nil {
		t.Fatal(err)
	}
	before, err := m.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Matched) != 3 {
		t.Fatalf("before = %d, want 3", len(before.Matched))
	}

	// Publish a new XML catalog in the running middleware's backends and
	// register it purely through the mapping module.
	world.Catalog.XML.MustAdd("late.xml", "<catalog><watch><brand>Orient</brand></watch><watch><brand>Swatch</brand></watch></catalog>")
	if err := m.RegisterSource(datasource.Definition{ID: "late_xml", Kind: datasource.KindXML, Path: "late.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "late_xml",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	}); err != nil {
		t.Fatal(err)
	}
	after, err := m.Query(context.Background(), "SELECT product")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Matched) != 5 {
		t.Errorf("after = %d, want 5 (3 original + 2 late)", len(after.Matched))
	}
}

// TestStatsConcurrentQueries hammers Query from many goroutines while
// other goroutines snapshot Stats; the final totals must be exact. Run
// with -race, this is the regression test for the Stats data race.
func TestStatsConcurrentQueries(t *testing.T) {
	m, _ := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 5, Seed: 13})
	const workers, perWorker = 8, 5
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers race with the writers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Stats()
				}
			}
		}()
	}
	var qwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := m.Query(context.Background(), "SELECT product"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	qwg.Wait()
	close(stop)
	wg.Wait()
	s := m.Stats()
	if s.Queries != workers*perWorker {
		t.Errorf("queries = %d, want %d", s.Queries, workers*perWorker)
	}
	if s.Instances != workers*perWorker*5 {
		t.Errorf("instances = %d, want %d", s.Instances, workers*perWorker*5)
	}
	if s.PlanTime <= 0 || s.ExtractTime <= 0 || s.GenerateTime <= 0 {
		t.Errorf("timings not recorded: %+v", s)
	}
}

// TestStatsReadTheMetricsRegistry pins the one-ledger contract: Stats
// is read from the metrics registry, so with one failing source its
// SourceErrors equals s2s_answer_errors_total and its Instances equals
// s2s_instances_generated_total after any number of queries.
func TestStatsReadTheMetricsRegistry(t *testing.T) {
	m, _ := testMiddleware(t, workload.Spec{XMLSources: 1, RecordsPerSource: 4, Seed: 14})
	if err := m.RegisterSource(datasource.Definition{ID: "dead_web", Kind: datasource.KindWeb, URL: "http://dead.example/x"}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "dead_web",
		Rule: mapping.Rule{Code: `var brand = Text(GetURL("http://dead.example/x"))`},
	}); err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := m.Query(context.Background(), "SELECT product"); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	errs := m.Metrics().Counter(obs.MetricAnswerErrors, nil).Value()
	instances := m.Metrics().Counter(obs.MetricInstances, nil).Value()
	if s.SourceErrors != n || uint64(s.SourceErrors) != errs {
		t.Errorf("SourceErrors = %d, %s = %d, want both %d", s.SourceErrors, obs.MetricAnswerErrors, errs, n)
	}
	if s.Instances != n*4 || uint64(s.Instances) != instances {
		t.Errorf("Instances = %d, %s = %d, want both %d", s.Instances, obs.MetricInstances, instances, n*4)
	}
}
