package transport

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/ontology"
	"repro/internal/workload"
)

func testServer(t *testing.T) (*httptest.Server, *core.Middleware, *workload.World) {
	t.Helper()
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 10, Seed: 21,
	})
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(mw))
	t.Cleanup(srv.Close)
	return srv, mw, world
}

func TestQueryOverHTTP(t *testing.T) {
	srv, _, world := testServer(t)
	client := NewClient(srv.URL, nil)
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	resp, err := client.Query(ctx, "SELECT product WHERE brand='Seiko'", "json")
	if err != nil {
		t.Fatal(err)
	}
	want := world.CountMatching(func(r workload.Record) bool { return r.Brand == "Seiko" })
	if resp.Matched != want {
		t.Errorf("matched = %d, want %d", resp.Matched, want)
	}
	if !strings.Contains(resp.Body, "Seiko") {
		t.Errorf("body missing data: %.200s", resp.Body)
	}
	// GET form agrees.
	got, err := client.QueryGet(ctx, "SELECT product WHERE brand='Seiko'", "json")
	if err != nil {
		t.Fatal(err)
	}
	if got.Matched != resp.Matched {
		t.Errorf("GET/POST disagree: %d vs %d", got.Matched, resp.Matched)
	}
	// Default format is OWL.
	owlResp, err := client.Query(ctx, "SELECT provider", "")
	if err != nil {
		t.Fatal(err)
	}
	if owlResp.Format != "owl" || !strings.Contains(owlResp.Body, "<rdf:RDF") {
		t.Errorf("default format = %s", owlResp.Format)
	}
}

func TestQueryErrorsOverHTTP(t *testing.T) {
	srv, _, _ := testServer(t)
	client := NewClient(srv.URL, nil)
	ctx := context.Background()
	if _, err := client.Query(ctx, "", "json"); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := client.Query(ctx, "SELECT nosuch", "json"); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := client.Query(ctx, "SELECT product", "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRemoteRegistration(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{XMLSources: 1, RecordsPerSource: 2, Seed: 22})
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(mw))
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	ctx := context.Background()

	// Register the world's sources and mappings through the API.
	for _, def := range world.Definitions {
		if err := client.RegisterSource(ctx, FromDefinition(def)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range world.Entries {
		if err := client.RegisterMapping(ctx, FromEntry(e)); err != nil {
			t.Fatal(err)
		}
	}
	sources, err := client.Sources(ctx)
	if err != nil || len(sources) != 1 {
		t.Fatalf("sources = %v, %v", sources, err)
	}
	mappings, err := client.Mappings(ctx)
	if err != nil || len(mappings) != 6 {
		t.Fatalf("mappings = %d, %v", len(mappings), err)
	}
	resp, err := client.Query(ctx, "SELECT product", "text")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Matched != 2 {
		t.Errorf("matched = %d", resp.Matched)
	}
	// Duplicate registration conflicts.
	if err := client.RegisterSource(ctx, FromDefinition(world.Definitions[0])); err == nil {
		t.Error("duplicate source accepted")
	}
}

func TestOntologyEndpoint(t *testing.T) {
	srv, _, _ := testServer(t)
	client := NewClient(srv.URL, nil)
	doc, err := client.Ontology(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ont, err := ontology.ReadOWL(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("remote ontology unparseable: %v", err)
	}
	if _, ok := ont.Attribute("thing.product.brand"); !ok {
		t.Error("remote ontology lost attributes")
	}
}

// getBody GETs a path of the server and returns the 200 response's
// body.
func getBody(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %s", path, resp.Status)
	}
	return body
}

// TestStatsEndpoint checks GET /stats's six keys against
// Middleware.Stats after a query.
func TestStatsEndpoint(t *testing.T) {
	srv, mw, _ := testServer(t)
	client := NewClient(srv.URL, nil)
	ctx := context.Background()
	if _, err := client.Query(ctx, "SELECT product", "json"); err != nil {
		t.Fatal(err)
	}
	var got map[string]int64
	if err := json.Unmarshal(getBody(t, srv, "/stats"), &got); err != nil {
		t.Fatal(err)
	}
	s := mw.Stats()
	want := map[string]int64{
		"queries":        int64(s.Queries),
		"instances":      int64(s.Instances),
		"sourceErrors":   int64(s.SourceErrors),
		"planTimeMs":     s.PlanTime.Milliseconds(),
		"extractTimeMs":  s.ExtractTime.Milliseconds(),
		"generateTimeMs": s.GenerateTime.Milliseconds(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GET /stats = %v, want %v", got, want)
	}
	if s.Queries != 1 || s.Instances == 0 {
		t.Errorf("Stats = %+v, want one query with instances", s)
	}
}

// TestStatsLeavesMetricsUnchanged checks that reading /stats creates no
// metric series: the /metrics body is byte-identical around it, before
// any query and after one (which leaves the error outcome unseen).
func TestStatsLeavesMetricsUnchanged(t *testing.T) {
	srv, _, _ := testServer(t)
	client := NewClient(srv.URL, nil)
	for i := 0; i < 2; i++ {
		before := getBody(t, srv, "/metrics")
		getBody(t, srv, "/stats")
		if after := getBody(t, srv, "/metrics"); string(after) != string(before) {
			t.Fatalf("GET /stats changed /metrics:\nbefore:\n%s\nafter:\n%s", before, after)
		}
		if _, err := client.Query(context.Background(), "SELECT product", "json"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _, world := testServer(t)
	want := world.CountMatching(func(r workload.Record) bool { return r.Brand == "Casio" })
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := NewClient(srv.URL, nil)
			resp, err := client.Query(context.Background(), "SELECT product WHERE brand='Casio'", "json")
			if err != nil {
				errs <- err
				return
			}
			if resp.Matched != want {
				errs <- &matchError{got: resp.Matched, want: want}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type matchError struct{ got, want int }

func (e *matchError) Error() string {
	return "matched mismatch"
}

func TestSourceHealthEndpoint(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{XMLSources: 1, RecordsPerSource: 2, Seed: 23})
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: extract.FromCatalog(world.Catalog),
		Extract:  extract.Options{Breaker: extract.BreakerOptions{Threshold: 1, Cooldown: time.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	// A dead source that opens its circuit after one query.
	if err := mw.RegisterSource(datasource.Definition{ID: "dead", Kind: datasource.KindWeb, URL: "http://dead.example/x"}); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "dead",
		Rule: mapping.Rule{Code: `var brand = Text(GetURL("http://dead.example/x"))`},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(mw))
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	if _, err := client.Query(context.Background(), "SELECT product", "json"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/health/sources")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health) != 1 || health[0]["source"] != "dead" || health[0]["open"] != true {
		t.Fatalf("health = %v", health)
	}
}

func TestSPARQLEndpoint(t *testing.T) {
	srv, mw, world := testServer(t)
	client := NewClient(srv.URL, nil)
	ctx := context.Background()

	// Without reasoning: instances carry only their concrete type.
	const productTypes = `PREFIX ont: <http://s2s.uma.pt/watch#> SELECT ?x WHERE { ?x a ont:product . }`
	raw, err := client.SPARQL(ctx, SPARQLRequest{SPARQL: productTypes})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Bindings) != 0 {
		t.Fatalf("raw bindings = %d, want 0 (watches typed ont:watch only)", len(raw.Bindings))
	}

	// With reasoning: every watch is entailed to be a product.
	inferred, err := client.SPARQL(ctx, SPARQLRequest{SPARQL: productTypes, Reason: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(inferred.Bindings) != len(world.Records) {
		t.Fatalf("inferred bindings = %d, want %d", len(inferred.Bindings), len(world.Records))
	}

	// Scoped by an S2SQL pre-query plus a FILTER.
	scoped, err := client.SPARQL(ctx, SPARQLRequest{
		S2SQL: "SELECT product WHERE brand='Seiko'",
		SPARQL: `PREFIX ont: <http://s2s.uma.pt/watch#> SELECT ?x ?b WHERE {
			?x ont:thing_product_brand ?b . FILTER (?b = "Seiko") }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := world.CountMatching(func(r workload.Record) bool { return r.Brand == "Seiko" })
	if len(scoped.Bindings) != want {
		t.Fatalf("scoped bindings = %d, want %d", len(scoped.Bindings), want)
	}
	// The S2SQL query runs under the route's own root span.
	if last := mw.Tracer().Last(1); len(last) != 1 || last[0].Name != "http_sparql" ||
		len(last[0].Children) != 1 || last[0].Children[0].Name != "query" || last[0].Attrs["outcome"] != "ok" {
		t.Errorf("recorded trace = %+v, want an http_sparql root (outcome ok) over one query span", last)
	}

	// Errors surface.
	if _, err := client.SPARQL(ctx, SPARQLRequest{SPARQL: ""}); err == nil {
		t.Error("empty sparql accepted")
	}
	if _, err := client.SPARQL(ctx, SPARQLRequest{SPARQL: "not sparql"}); err == nil {
		t.Error("bad sparql accepted")
	}
	if _, err := client.SPARQL(ctx, SPARQLRequest{S2SQL: "SELECT nosuch", SPARQL: productTypes}); err == nil {
		t.Error("bad s2sql accepted")
	}
}

func TestHTTPFetcherAgainstRemoteSource(t *testing.T) {
	// A remote web shop served over real HTTP.
	shop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/watches.html" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(`<html><body><p><b>Seiko Men's Automatic Dive Watch</b></p></body></html>`))
	}))
	defer shop.Close()

	ont := ontology.Paper()
	mw, err := core.New(core.Config{
		Ontology: ont,
		Backends: extract.Backends{Pages: (&HTTPFetcher{}).Fetch},
	})
	if err != nil {
		t.Fatal(err)
	}
	url := shop.URL + "/watches.html"
	if err := mw.RegisterSource(datasource.Definition{ID: "remote_shop", Kind: datasource.KindWeb, URL: url}); err != nil {
		t.Fatal(err)
	}
	rule := `
var P = GetURL("` + url + `")
var St = Str_Search(Text(P), "<p><b>" + "[0-9a-zA-Z']+")
var spliter = Str_Split(St[0][0], "<>")
var brand = Select(spliter[2], 0, 6)
`
	if err := mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "remote_shop",
		Rule: mapping.Rule{Code: rule}, Scenario: mapping.SingleRecord,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := mw.Query(context.Background(), "SELECT product WHERE brand='Seiko'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if len(res.Matched) != 1 {
		t.Fatalf("matched = %d", len(res.Matched))
	}
}

func TestHTTPFetcherErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusForbidden)
	}))
	defer srv.Close()
	f := &HTTPFetcher{}
	if _, err := f.Fetch(context.Background(), srv.URL); err == nil {
		t.Error("non-200 fetched")
	}
	if _, err := f.Fetch(context.Background(), "http://127.0.0.1:1/nothing"); err == nil {
		t.Error("unreachable host fetched")
	}
}

func TestWireConversions(t *testing.T) {
	def := datasource.Definition{ID: "d", Kind: datasource.KindDatabase, DSN: "x"}
	back, err := FromDefinition(def).ToDefinition()
	if err != nil || back.ID != def.ID || back.Kind != def.Kind || back.DSN != def.DSN {
		t.Errorf("definition round trip: %+v, %v", back, err)
	}
	if _, err := (WireSource{ID: "a", Kind: "sqlite"}).ToDefinition(); err == nil {
		t.Error("unknown kind converted")
	}
	e := mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "s",
		Rule:     mapping.Rule{Language: mapping.LangXPath, Code: "//b", Column: "c"},
		Scenario: mapping.SingleRecord,
	}
	back2, err := FromEntry(e).ToEntry()
	if err != nil || back2 != e {
		t.Errorf("entry round trip: %+v, %v", back2, err)
	}
	if _, err := (WireMapping{Scenario: "sometimes"}).ToEntry(); err == nil {
		t.Error("unknown scenario converted")
	}
	if _, err := (WireMapping{Language: "prolog"}).ToEntry(); err == nil {
		t.Error("unknown language converted")
	}
	_ = instance.FormatOWL // keep import for clarity of format names used above
}
