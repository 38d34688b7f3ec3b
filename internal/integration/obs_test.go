package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestFederatedQuerySingleSpanTree runs a traced query against a remote
// S2S endpoint and checks that the local client span and the server's
// whole pipeline — down to the per-source extraction spans — form one
// connected tree under a single trace ID.
func TestFederatedQuerySingleSpanTree(t *testing.T) {
	mw, _ := build(t, workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 5, Seed: 71,
	}, extract.Options{})
	srv := httptest.NewServer(transport.NewServer(mw))
	defer srv.Close()
	client := transport.NewClient(srv.URL, nil)

	tracer := obs.NewTracer(4)
	ctx, root := tracer.StartTrace(context.Background(), "federated_query")
	resp, err := client.QueryTraced(ctx, "SELECT product", "json")
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	if resp.Trace == nil {
		t.Fatal("no trace returned by the server")
	}
	if len(root.Children) != 1 || root.Children[0] != resp.Trace {
		t.Fatal("server trace not grafted under the local span")
	}
	remote := resp.Trace
	if remote.Name != "http_query" {
		t.Errorf("server root span = %q, want http_query", remote.Name)
	}
	if remote.TraceID != root.TraceID {
		t.Errorf("server trace id = %q, client trace id = %q — not one trace",
			remote.TraceID, root.TraceID)
	}
	if remote.ParentID != root.ID {
		t.Errorf("server root parent = %q, want client span %q", remote.ParentID, root.ID)
	}

	// Every span in the grafted tree shares the trace ID, and every
	// child's parent pointer is consistent with its position.
	names := map[string]int{}
	var verify func(s *obs.Span)
	verify = func(s *obs.Span) {
		if s.TraceID != root.TraceID {
			t.Errorf("span %s has trace id %q, want %q", s.Name, s.TraceID, root.TraceID)
		}
		names[s.Name]++
		for _, c := range s.Children {
			if c.ParentID != s.ID {
				t.Errorf("span %s has parent %q, want %q (its position in the tree)",
					c.Name, c.ParentID, s.ID)
			}
			verify(c)
		}
	}
	verify(root)

	for _, stage := range []string{"query", "parse_plan", "extract", "extraction_schema", "generate", "serialize"} {
		if names[stage] != 1 {
			t.Errorf("stage span %q appears %d times, want 1", stage, names[stage])
		}
	}
	sources := 0
	for name := range names {
		if strings.HasPrefix(name, "source:") {
			sources++
		}
	}
	if sources != 4 {
		t.Errorf("per-source spans = %d, want 4", sources)
	}

	// Stage durations nest inside the query span's latency.
	var query *obs.Span
	remote.Walk(func(s *obs.Span) {
		if s.Name == "query" {
			query = s
		}
	})
	var stageSum time.Duration
	for _, c := range query.Children {
		if c.Duration < 0 {
			t.Errorf("stage %s has negative duration", c.Name)
		}
		stageSum += c.Duration
	}
	if stageSum == 0 || stageSum > query.Duration {
		t.Errorf("stage durations sum to %v, query span took %v", stageSum, query.Duration)
	}
}

// TestEmittedMetricsMatchDeclaredAndDocumented drives a middleware
// through a scenario that touches every metric family — successful
// extraction from all four source kinds, a repeated query, retries and
// a breaker trip on a dead source, a streamed and an eager query, and a
// 3-node cluster serving a hedged scatter-gather query with a
// version-gated catalog sync — and then checks that
// every family some registry actually holds is declared in internal/obs
// and documented in docs/OBSERVABILITY.md.
func TestEmittedMetricsMatchDeclaredAndDocumented(t *testing.T) {
	world := workload.MustGenerate(workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 5, Seed: 72,
	})
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: extract.FromCatalog(world.Catalog),
		Extract: extract.Options{
			Retries: 1,
			Breaker: extract.BreakerOptions{Threshold: 1, Cooldown: time.Hour},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	// A dead source: fails (with a retry), trips its breaker on the first
	// query, and is skipped as breaker_open on the second.
	if err := mw.RegisterSource(datasource.Definition{
		ID: "dead", Kind: datasource.KindWeb, URL: "http://dead.example/x",
	}); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "dead",
		Rule: mapping.Rule{Code: `var brand = Text(GetURL("http://dead.example/x"))`},
	}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := mw.Query(ctx, "SELECT product"); err != nil {
			t.Fatal(err)
		}
	}
	// A constrained query exercises the query planner's pushdown counters.
	if _, err := mw.Query(ctx, "SELECT product WHERE brand = 'Seiko'"); err != nil {
		t.Fatal(err)
	}
	// A streamed query on this relation-bearing world is materialized and
	// leaves in chunks; the batch counter needs an eager query, which
	// needs a merge-free (flat-ontology) world.
	if _, _, err := mw.QueryToStream(ctx, io.Discard, "SELECT product", instance.FormatJSON); err != nil {
		t.Fatal(err)
	}
	flatWorld := workload.MustGenerate(workload.Spec{XMLSources: 1, RecordsPerSource: 5, Seed: 72, FlatOntology: true})
	flat, err := core.NewWithCatalog(flatWorld.Ontology, flatWorld.Catalog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := flatWorld.Apply(flat); err != nil {
		t.Fatal(err)
	}
	if _, _, err := flat.QueryToStream(ctx, io.Discard, "SELECT product", instance.FormatJSON); err != nil {
		t.Fatal(err)
	}
	// A class key makes records mergeable across sources, which blocks
	// predicate pushdown; the planner instead narrows sources missing the
	// constrained attribute with a cross-source semi-join, whose runtime
	// decisions land in the semijoin counter (planner v3).
	if err := mw.SetClassKey("watch", "thing.product.model"); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Query(ctx, "SELECT product WHERE water_resistance >= 100"); err != nil {
		t.Fatal(err)
	}
	var semijoins uint64
	for _, outcome := range obs.SemiJoinOutcomes {
		semijoins += mw.Metrics().Counter(obs.MetricPlannerSemiJoin, obs.Labels{"outcome": outcome}).Value()
	}
	if semijoins == 0 {
		t.Error("keyed constrained query made no semi-join decisions")
	}

	// The cluster families need a real fleet: stand up the 3-node rig
	// with one slow member so a hedge fires, then land a registration on
	// the coordinator so a member's next beat forces a catalog sync.
	spec := workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 6, Seed: 82,
	}
	slowWorld := workload.MustGenerate(spec)
	slow := faultinject.Plan{}
	for _, def := range slowWorld.Definitions {
		slow[faultinject.Key(def)] = faultinject.Fault{AddLatency: 300 * time.Millisecond}
	}
	rig := startClusterRig(t, spec,
		cluster.Options{HedgeDelay: 20 * time.Millisecond},
		map[string]faultinject.Plan{"n2": slow})
	cr, err := rig.queryCluster("SELECT product", "json")
	if err != nil {
		t.Fatal(err)
	}
	if cr.Cluster.Hedged == 0 {
		t.Fatalf("cluster scenario fired no hedges: %+v", cr.Cluster)
	}
	lateBody, err := json.Marshal(transport.FromDefinition(datasource.Definition{
		ID: "obs_late", Kind: datasource.KindXML, Path: "obs_late.xml",
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(rig.servers["n1"].URL+"/sources", "application/json", bytes.NewReader(lateBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("registering the late source: status %d", resp.StatusCode)
	}
	if err := rig.nodes["n2"].HeartbeatOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if v := rig.mws["n2"].Metrics().Counter(obs.MetricClusterCatalogSyncs, nil).Value(); v == 0 {
		t.Error("member heartbeat against a newer catalog version forced no sync")
	}

	declared := map[string]bool{}
	for _, name := range obs.MetricNames() {
		declared[name] = true
	}
	docBytes, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)

	emitted := map[string]bool{}
	registries := []*obs.Registry{mw.Metrics(), flat.Metrics()}
	for _, id := range []string{"n1", "n2", "n3"} {
		registries = append(registries, rig.mws[id].Metrics())
	}
	for _, reg := range registries {
		for _, name := range reg.Names() {
			emitted[name] = true
		}
	}
	for name := range emitted {
		if !declared[name] {
			t.Errorf("registry emits undeclared metric %s", name)
		}
		if !strings.Contains(doc, name) {
			t.Errorf("emitted metric %s is not documented in docs/OBSERVABILITY.md", name)
		}
	}
	// The scenario above must exercise the full declared surface; if a
	// family stops being emitted, either the code or the declaration (and
	// this scenario) has drifted.
	if len(emitted) != len(declared) {
		var names []string
		for name := range emitted {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("emitted %d of %d declared families: %v", len(emitted), len(declared), names)
	}

	if v := mw.Metrics().Counter(obs.MetricBreakerTrips, obs.Labels{"source": "dead"}).Value(); v != 1 {
		t.Errorf("breaker trips for dead source = %d, want 1", v)
	}
	// All four queries after the tripping one (repeat, constrained,
	// streamed, keyed) are skipped as breaker_open.
	if v := mw.Metrics().Counter(obs.MetricSourceExtractTotal, obs.Labels{"source": "dead", "outcome": "breaker_open"}).Value(); v != 4 {
		t.Errorf("breaker_open attempts for dead source = %d, want 4", v)
	}
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestOpsEndpointsServeMetricsAndTraces checks the HTTP ops surface: a
// served query shows up in /metrics with per-source labels and in
// /trace/last as a JSON span tree.
func TestOpsEndpointsServeMetricsAndTraces(t *testing.T) {
	mw, _ := build(t, workload.Spec{DBSources: 2, RecordsPerSource: 5, Seed: 73}, extract.Options{})
	srv := httptest.NewServer(transport.NewServer(mw))
	defer srv.Close()
	client := transport.NewClient(srv.URL, nil)
	if _, err := client.Query(context.Background(), "SELECT product", "json"); err != nil {
		t.Fatal(err)
	}

	metrics := httpGetBody(t, srv.URL+"/metrics")
	for _, want := range []string{
		`s2s_query_total{outcome="ok"} 1`,
		`s2s_source_extract_total{outcome="ok",source="db_000"} 1`,
		"s2s_query_duration_seconds_bucket",
		"# TYPE s2s_stage_duration_seconds histogram",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	traces := httpGetBody(t, srv.URL+"/trace/last?n=1")
	for _, want := range []string{`"name":"http_query"`, `"name":"source:db_000"`, `"traceId"`} {
		if !strings.Contains(traces, want) {
			t.Errorf("/trace/last missing %q:\n%s", want, traces)
		}
	}
}
