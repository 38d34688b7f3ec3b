// Package repro's root benchmarks are the one definition of the
// experiments E1–E22 indexed in DESIGN.md §4: each experiment is exactly
// one BenchmarkE<n> family here. `make bench` records every family into
// BENCH_baseline.json, `s2s-benchjson -markdown BENCH_baseline.json`
// prints the per-family tables EXPERIMENTS.md shows, and
// `make bench-compare FAMILY=E<n>` gates one family against that file.
// `make bench-smoke` (part of `make check`) runs every family once, so
// the correctness checks the families carry as b.Fatalf — E1 against
// the generator's ground truth, E8 against internal/baseline, E13 and
// E14 across their arms — fail the gate when broken.
package repro

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/s2sql"
	"repro/internal/sparql"
	"repro/internal/transport"
	"repro/internal/workload"
)

const paperQuery = "SELECT product WHERE brand='Seiko' AND case='stainless-steel'"

func buildMW(b *testing.B, spec workload.Spec, opts extract.Options) (*core.Middleware, *workload.World) {
	b.Helper()
	world := workload.MustGenerate(spec)
	return registerMW(b, world, world.Entries, opts), world
}

// registerMW builds a middleware over every source of world, mapped by
// entries instead of the world's own.
func registerMW(b testing.TB, world *workload.World, entries []mapping.Entry, opts extract.Options) *core.Middleware {
	b.Helper()
	mw, err := core.NewWithCatalog(world.Ontology, world.Catalog, opts)
	if err != nil {
		b.Fatal(err)
	}
	mapped := *world
	mapped.Entries = entries
	if err := mapped.Apply(mw); err != nil {
		b.Fatal(err)
	}
	return mw
}

// sameAnswer fails b unless every middleware answers q with the same
// JSON document: the arms of an ablation may differ in cost, never in
// answer.
func sameAnswer(b *testing.B, q string, mws ...*core.Middleware) {
	b.Helper()
	var first string
	for i, mw := range mws {
		var out strings.Builder
		if _, err := mw.QueryTo(context.Background(), &out, q, instance.FormatJSON); err != nil {
			b.Fatal(err)
		}
		got := out.String()
		if i == 0 {
			first = got
		} else if got != first {
			b.Fatalf("arm %d answers %q differently from arm 0:\n%.300s\nvs\n%.300s", i, q, got, first)
		}
	}
}

// isSeikoSteel is the paper query's predicate, for ground-truth counts.
func isSeikoSteel(r workload.Record) bool { return r.Brand == "Seiko" && r.Case == "stainless-steel" }

// benchQuery times b.N runs of q on mw, failing on any query or source
// error. Setup and warm-up done before the call are not timed.
func benchQuery(b *testing.B, mw *core.Middleware, q string) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mw.Query(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Errors) > 0 {
			b.Fatalf("errors: %v", res.Errors)
		}
	}
}

// BenchmarkE1EndToEnd — Figure 1: one S2SQL query across the four source
// kinds, records per source swept; every answer is checked against the
// generator's ground truth.
func BenchmarkE1EndToEnd(b *testing.B) {
	for _, records := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			mw, world := buildMW(b, workload.Spec{
				DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
				RecordsPerSource: records, Seed: 1,
			}, extract.Options{})
			want := world.CountMatching(isSeikoSteel)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mw.Query(ctx, paperQuery)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Errors) > 0 {
					b.Fatalf("errors: %v", res.Errors)
				}
				if len(res.Matched) != want {
					b.Fatalf("matched %d, ground truth %d", len(res.Matched), want)
				}
			}
		})
	}
}

// BenchmarkE2OntologyScale — Figure 2: against growing ontologies,
// planning a deep-class query ("plan") and exporting the schema as an
// OWL document ("owl", which reports the schema's triple count).
func BenchmarkE2OntologyScale(b *testing.B) {
	for _, classes := range []int{10, 100, 1000} {
		ont := workload.GrowOntology(classes, 3, 7)
		// Query the deepest class to stress closure computation; constrain
		// by the dotted unique ID, since "attr0" repeats along the chain.
		var deepest, deepestPath string
		depth := -1
		for _, c := range ont.Classes() {
			if d := strings.Count(c.Path(), "."); d > depth {
				depth, deepest, deepestPath = d, c.Name, c.Path()
			}
		}
		q := fmt.Sprintf("SELECT %s WHERE %s.attr0 = 'x'", deepest, deepestPath)
		b.Run(fmt.Sprintf("plan/classes=%d", classes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s2sql.ParseAndPlan(q, ont); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("owl/classes=%d", classes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ont.WriteOWL(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ont.ToGraph().Len()), "triples")
		})
	}
}

// BenchmarkE3Registration — Figures 3-4: attribute registration and
// extraction-schema lookup.
func BenchmarkE3Registration(b *testing.B) {
	for _, n := range []int{100, 1000} {
		ont := workload.GrowOntology(n, 1, 3)
		attrs := ont.Attributes()
		b.Run(fmt.Sprintf("register/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reg := datasource.NewRegistry()
				if err := reg.Register(datasource.Definition{ID: "txt", Kind: datasource.KindText, Path: "d"}); err != nil {
					b.Fatal(err)
				}
				repo := mapping.NewRepository(ont, reg)
				for _, a := range attrs {
					if err := repo.Register(mapping.Entry{
						AttributeID: a.ID(), SourceID: "txt",
						Rule: mapping.Rule{Language: mapping.LangRegex, Code: `v=([0-9]+)`},
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("schema/n=%d", n), func(b *testing.B) {
			reg := datasource.NewRegistry()
			if err := reg.Register(datasource.Definition{ID: "txt", Kind: datasource.KindText, Path: "d"}); err != nil {
				b.Fatal(err)
			}
			repo := mapping.NewRepository(ont, reg)
			for _, a := range attrs {
				repo.MustRegister(mapping.Entry{
					AttributeID: a.ID(), SourceID: "txt",
					Rule: mapping.Rule{Language: mapping.LangRegex, Code: `v=([0-9]+)`},
				})
			}
			ids := repo.MappedAttributeIDs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := repo.Schema(ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4ExtractionSteps — Figure 5: step 4 under sequential and
// concurrent delegation. In-process sources answer in microseconds, so
// the rtt=2ms arms model the paper's remote autonomous sources: every
// backend read (page fetch, database open, XML/text document read —
// once per document per run) pays 2ms, injected by faultinject exactly
// as the repo benchmark's slow_partners workload does.
func BenchmarkE4ExtractionSteps(b *testing.B) {
	for _, sources := range []int{4, 16} {
		per := sources / 4
		world := workload.MustGenerate(workload.Spec{
			DBSources: per, XMLSources: per, WebSources: per, TextSources: per,
			RecordsPerSource: 50, Seed: 2,
		})
		plan, err := s2sql.ParseAndPlan("SELECT product", world.Ontology)
		if err != nil {
			b.Fatal(err)
		}
		for _, rtt := range []time.Duration{0, 2 * time.Millisecond} {
			backends, suffix := extract.FromCatalog(world.Catalog), ""
			if rtt > 0 {
				faults := faultinject.Plan{}
				for _, def := range world.Definitions {
					faults[faultinject.Key(def)] = faultinject.Fault{AddLatency: rtt}
				}
				backends, suffix = faultinject.New(4, faults).WrapBackends(backends), "/rtt="+rtt.String()
			}
			for _, par := range []int{1, 8} {
				b.Run(fmt.Sprintf("sources=%d/par=%d%s", sources, par, suffix), func(b *testing.B) {
					reg := datasource.NewRegistry()
					repo := mapping.NewRepository(world.Ontology, reg)
					for _, d := range world.Definitions {
						if err := reg.Register(d); err != nil {
							b.Fatal(err)
						}
					}
					for _, e := range world.Entries {
						repo.MustRegister(e)
					}
					mgr := extract.NewManager(repo, backends, extract.Options{Parallelism: par})
					ctx := context.Background()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rs, err := mgr.Extract(ctx, plan.AttributeIDs())
						if err != nil {
							b.Fatal(err)
						}
						if len(rs.Errors) > 0 {
							b.Fatalf("errors: %v", rs.Errors)
						}
					}
				})
			}
		}
	}
}

// BenchmarkE5RecordScaling — §2.3: n-record sources.
func BenchmarkE5RecordScaling(b *testing.B) {
	for _, records := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			mw, _ := buildMW(b, workload.Spec{DBSources: 1, XMLSources: 1, RecordsPerSource: records, Seed: 3}, extract.Options{})
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mw.Query(ctx, "SELECT product")
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Matched) != 2*records {
					b.Fatalf("matched = %d", len(res.Matched))
				}
			}
		})
	}
}

// BenchmarkE6QueryHandler — §2.5: S2SQL parse + plan.
func BenchmarkE6QueryHandler(b *testing.B) {
	ont := workload.MustGenerate(workload.Spec{Seed: 1}).Ontology
	for _, preds := range []int{1, 4, 16} {
		var conds []string
		for i := 0; i < preds; i++ {
			conds = append(conds, fmt.Sprintf("brand != 'none%d'", i))
		}
		q := "SELECT product WHERE " + strings.Join(conds, " AND ")
		b.Run(fmt.Sprintf("predicates=%d", preds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s2sql.ParseAndPlan(q, ont); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Serialization — §2.6: output formats. Before its timer
// starts, each RDF arm parses its own output back and requires exactly
// the graph ToGraph builds for the answer, so what is timed is a
// writer checked on a 2,000-instance document.
func BenchmarkE7Serialization(b *testing.B) {
	mw, _ := buildMW(b, workload.Spec{DBSources: 1, XMLSources: 1, RecordsPerSource: 1000, Seed: 4}, extract.Options{})
	res, err := mw.Query(context.Background(), "SELECT product")
	if err != nil {
		b.Fatal(err)
	}
	gen := mw.Generator()
	want, err := gen.ToGraph(res)
	if err != nil {
		b.Fatal(err)
	}
	parsers := map[instance.Format]func(io.Reader) (*rdf.Graph, error){
		instance.FormatOWL:      owl.ParseRDFXML,
		instance.FormatTurtle:   rdf.ParseTurtle,
		instance.FormatNTriples: rdf.ParseNTriples,
	}
	for _, f := range []instance.Format{
		instance.FormatOWL, instance.FormatTurtle, instance.FormatNTriples,
		instance.FormatXML, instance.FormatJSON, instance.FormatText,
	} {
		b.Run(f.String(), func(b *testing.B) {
			if parse, ok := parsers[f]; ok {
				var out strings.Builder
				if err := gen.Serialize(&out, res, f); err != nil {
					b.Fatal(err)
				}
				got, err := parse(strings.NewReader(out.String()))
				if err != nil {
					b.Fatalf("%s output does not parse: %v", f, err)
				}
				if !got.Equal(want) {
					b.Fatalf("%s output parses to %d triples, not the answer's %d-triple graph", f, got.Len(), want.Len())
				}
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				var out strings.Builder
				if err := gen.Serialize(&out, res, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8VsBaseline — §1/§5: semantic middleware vs hand-coded
// syntactic ETL on the same world and question; every s2s answer must
// match the baseline's count.
func BenchmarkE8VsBaseline(b *testing.B) {
	spec := workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 250, Seed: 5,
	}
	world := workload.MustGenerate(spec)
	it := baseline.New(world.Catalog, world.Definitions)
	seikoSteel := func(p baseline.Product) bool { return p.Brand == "Seiko" && p.Case == "stainless-steel" }
	want, err := it.Query(seikoSteel)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("s2s", func(b *testing.B) {
		mw, _ := buildMW(b, spec, extract.Options{})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := mw.Query(ctx, paperQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Matched) != len(want) {
				b.Fatalf("s2s matched %d, baseline %d", len(res.Matched), len(want))
			}
		}
	})
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := it.Query(seikoSteel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9ExtractorTypes — §2.4: per-source-kind extractor cost for the
// same logical data.
func BenchmarkE9ExtractorTypes(b *testing.B) {
	kinds := []struct {
		name string
		spec workload.Spec
	}{
		{"sql", workload.Spec{DBSources: 1, RecordsPerSource: 500, Seed: 6}},
		{"xpath", workload.Spec{XMLSources: 1, RecordsPerSource: 500, Seed: 6}},
		{"webl", workload.Spec{WebSources: 1, RecordsPerSource: 500, Seed: 6}},
		{"regex", workload.Spec{TextSources: 1, RecordsPerSource: 500, Seed: 6}},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			mw, _ := buildMW(b, k.spec, extract.Options{})
			benchQuery(b, mw, "SELECT product")
		})
	}
}

// BenchmarkE10Transport — the middleware behind HTTP.
func BenchmarkE10Transport(b *testing.B) {
	mw, _ := buildMW(b, workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 100, Seed: 7,
	}, extract.Options{})
	srv := httptest.NewServer(transport.NewServer(mw))
	defer srv.Close()
	client := transport.NewClient(srv.URL, nil)
	ctx := context.Background()
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.Query(ctx, paperQuery, "json"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			cl := transport.NewClient(srv.URL, nil)
			for pb.Next() {
				if _, err := cl.Query(ctx, paperQuery, "json"); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkE12Reasoning — RDFS materialization and SPARQL over the output.
func BenchmarkE12Reasoning(b *testing.B) {
	mw, _ := buildMW(b, workload.Spec{DBSources: 1, RecordsPerSource: 1000, Seed: 9}, extract.Options{})
	res, err := mw.Query(context.Background(), "SELECT product")
	if err != nil {
		b.Fatal(err)
	}
	graph, err := mw.Generator().ToGraph(res)
	if err != nil {
		b.Fatal(err)
	}
	schema := mw.Ontology().ToGraph()
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reason.Materialize(schema, graph); err != nil {
				b.Fatal(err)
			}
		}
	})
	materialized, err := reason.Materialize(schema, graph)
	if err != nil {
		b.Fatal(err)
	}
	const q = `PREFIX ont: <http://s2s.uma.pt/watch#> SELECT ?x WHERE { ?x a ont:product . }`
	b.Run("sparql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := sparql.Select(materialized, q)
			if err != nil {
				b.Fatal(err)
			}
			if len(out.Bindings) != 1000 {
				b.Fatalf("bindings = %d", len(out.Bindings))
			}
		}
	})
}

// BenchmarkE13WrapperLanguage — §2.3.1 ablation: the paper-era WebL
// wrappers against CSS-selector rules over the same generated pages
// (selectorEntries). Both arms must answer identically; only the rule
// text differs.
func BenchmarkE13WrapperLanguage(b *testing.B) {
	world := workload.MustGenerate(workload.Spec{WebSources: 1, RecordsPerSource: 500, Seed: 10})
	webl := registerMW(b, world, world.Entries, extract.Options{})
	selector := registerMW(b, world, selectorEntries(world), extract.Options{})
	sameAnswer(b, "SELECT product", webl, selector)
	for _, arm := range []struct {
		name string
		mw   *core.Middleware
	}{{"webl", webl}, {"selector", selector}} {
		b.Run(arm.name, func(b *testing.B) { benchQuery(b, arm.mw, "SELECT product") })
	}
}

// BenchmarkE14MappingGranularity — the ablation DESIGN.md §5 names. The
// paper maps "on ontology attributes rather than classes" (§2.3.1):
// every attribute carries its own rule, so a database source runs one
// SELECT per attribute ("per-attribute"). A class-granular design
// shares one multi-column SELECT across the class's attributes via
// Rule.Column ("shared"). Both arms must answer identically.
func BenchmarkE14MappingGranularity(b *testing.B) {
	world := workload.MustGenerate(workload.Spec{DBSources: 1, RecordsPerSource: 2000, Seed: 11})
	def := world.Definitions[0]
	const sharedSQL = "SELECT brand, model, watch_case, price, water_m FROM watches ORDER BY id"
	var perAttribute, shared []mapping.Entry
	for _, c := range []struct{ attr, column string }{
		{"thing.product.brand", "brand"},
		{"thing.product.model", "model"},
		{"thing.product.watch.case", "watch_case"},
		{"thing.product.price", "price"},
		{"thing.product.watch.water_resistance", "water_m"},
	} {
		perAttribute = append(perAttribute, mapping.Entry{AttributeID: c.attr, SourceID: def.ID,
			Rule: mapping.Rule{Language: mapping.LangSQL, Code: "SELECT " + c.column + " FROM watches ORDER BY id"}})
		shared = append(shared, mapping.Entry{AttributeID: c.attr, SourceID: def.ID,
			Rule: mapping.Rule{Language: mapping.LangSQL, Code: sharedSQL, Column: c.column}})
	}
	arms := []struct {
		name string
		mw   *core.Middleware
	}{
		{"per-attribute", registerMW(b, world, perAttribute, extract.Options{})},
		{"shared", registerMW(b, world, shared, extract.Options{})},
	}
	sameAnswer(b, "SELECT product", arms[0].mw, arms[1].mw)
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) { benchQuery(b, arm.mw, "SELECT product") })
	}
}

// BenchmarkE15RepeatedQuery — hot-path amortization: the same query
// repeated against an unchanged world after one warm-up, so the plan,
// schema and compiled-rule caches are filled and every run still
// extracts its data values live.
func BenchmarkE15RepeatedQuery(b *testing.B) {
	mw, _ := buildMW(b, workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 25, Seed: 15,
	}, extract.Options{})
	if _, err := mw.Query(context.Background(), paperQuery); err != nil { // warm the caches
		b.Fatal(err)
	}
	benchQuery(b, mw, paperQuery)
}

// BenchmarkE16ConcurrentQuery — N goroutines issuing the identical
// query against one middleware after one warm-up: concurrent live
// extractions sharing the compiled-rule and plan caches.
func BenchmarkE16ConcurrentQuery(b *testing.B) {
	mw, _ := buildMW(b, workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 25, Seed: 16,
	}, extract.Options{})
	ctx := context.Background()
	if _, err := mw.Query(ctx, paperQuery); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := mw.Query(ctx, paperQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Errors) > 0 {
				b.Fatalf("errors: %v", res.Errors)
			}
		}
	})
}

// BenchmarkE17SelectiveQuery — query planner v2: one highly selective
// constrained query against mixed sources, cold path (no rule-result
// cache, so every iteration pays the full extraction), with predicate
// pushdown on and off. The web sources map no water_resistance
// attribute, so the planner prunes them outright — their WebL programs
// never run — and the surviving DB/XML/text groups drop failing
// records at the source boundary before instance assembly.
func BenchmarkE17SelectiveQuery(b *testing.B) {
	spec := workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 2, TextSources: 1,
		RecordsPerSource: 200, Seed: 17,
	}
	const q = "SELECT product WHERE water_resistance >= 200"
	modes := []struct {
		name string
		opts extract.Options
	}{
		{"pushdown", extract.Options{}},
		{"nopushdown", extract.Options{DisablePushdown: true}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			mw, _ := buildMW(b, spec, mode.opts)
			if _, err := mw.Query(context.Background(), q); err != nil { // warm compiled rules & page servers
				b.Fatal(err)
			}
			benchQuery(b, mw, q)
		})
	}
}

// BenchmarkE18LargeSource — chunked against whole-document
// serialization: one full-scan query over growing sources through the
// two entry points, QueryToStream ("streaming": on this relation-bearing
// world it materializes, then serializes in bounded chunks) and QueryTo
// ("materializing": one whole-document write), both to a discarded
// writer so the measurement isolates pipeline cost. Run with -benchmem:
// the claim under test is the allocation profile — the chunked path's
// peak buffered memory stays flat as rows grow 10x
// (TestStreamingBoundedMemory asserts it; docs/PERFORMANCE.md records
// the measured sweep).
func BenchmarkE18LargeSource(b *testing.B) {
	modes := []struct {
		name  string
		query func(ctx context.Context, mw *core.Middleware) (*instance.Result, error)
	}{
		{"streaming", func(ctx context.Context, mw *core.Middleware) (*instance.Result, error) {
			res, _, err := mw.QueryToStream(ctx, io.Discard, "SELECT product", instance.FormatJSON)
			return res, err
		}},
		{"materializing", func(ctx context.Context, mw *core.Middleware) (*instance.Result, error) {
			return mw.QueryTo(ctx, io.Discard, "SELECT product", instance.FormatJSON)
		}},
	}
	for _, records := range []int{100, 1000} {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/records=%d", mode.name, records), func(b *testing.B) {
				mw, _ := buildMW(b, workload.Spec{
					DBSources: 1, XMLSources: 1, TextSources: 1,
					RecordsPerSource: records, Seed: 18,
				}, extract.Options{})
				ctx := context.Background()
				if _, err := mw.Query(ctx, "SELECT product"); err != nil { // warm compiled rules
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := mode.query(ctx, mw)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Errors) > 0 {
						b.Fatalf("errors: %v", res.Errors)
					}
				}
			})
		}
	}
}

// BenchmarkE19HedgedDispatch — fault-tolerant cluster: one query
// scatter-gathered across a 3-node in-process cluster whose member n2
// answers 40ms slow on every backend. The hedged/unhedged pair
// measures what hedging buys: unhedged, every query that lands a
// partition on n2 waits out the slow node; hedged, the coordinator
// re-issues those sub-queries to the replica owner after a short
// deadline and takes the first answer; docs/CLUSTER.md cites the pair.
func BenchmarkE19HedgedDispatch(b *testing.B) {
	const slowBy = 40 * time.Millisecond
	spec := workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 20, Seed: 19,
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"hedged", false},
		{"unhedged", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			world := workload.MustGenerate(spec)
			newMW := func(apply bool, slow bool) *core.Middleware {
				backends := extract.FromCatalog(world.Catalog)
				if slow {
					plan := faultinject.Plan{}
					for _, def := range world.Definitions {
						plan[faultinject.Key(def)] = faultinject.Fault{AddLatency: slowBy}
					}
					backends = faultinject.New(19, plan).WrapBackends(backends)
				}
				mw, err := core.New(core.Config{Ontology: world.Ontology, Backends: backends})
				if err != nil {
					b.Fatal(err)
				}
				if apply {
					if err := world.Apply(mw); err != nil {
						b.Fatal(err)
					}
				}
				return mw
			}

			coord, err := cluster.NewNode(transport.NewServer(newMW(true, false)), cluster.Options{
				ID: "n1", DisableHedging: mode.disable, HedgeDelay: 5 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			coordSrv := httptest.NewServer(coord)
			defer coordSrv.Close()
			coord.SetAddr(coordSrv.URL)
			for _, id := range []string{"n2", "n3"} {
				node, err := cluster.NewNode(transport.NewServer(newMW(false, id == "n2")), cluster.Options{
					ID: id, CoordinatorURL: coordSrv.URL,
				})
				if err != nil {
					b.Fatal(err)
				}
				srv := httptest.NewServer(node)
				defer srv.Close()
				node.SetAddr(srv.URL)
				if err := node.Join(context.Background()); err != nil {
					b.Fatal(err)
				}
			}

			query := func() error {
				resp, err := http.Get(coordSrv.URL + "/cluster/query?q=SELECT+product&format=json")
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("status %d", resp.StatusCode)
				}
				return nil
			}
			if err := query(); err != nil { // warm compiled rules and caches
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := query(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE20SemiJoin — planner v3: a constrained keyed query where
// only a small directory source maps the constrained attribute and a
// few large detail sources can contribute only by class-key merge.
// With semi-joins on, the details run in wave two narrowed to the
// directory's key values (a typed IN predicate on their SQL rules);
// off, every detail row is extracted, assembled, and then filtered at
// the instance layer; docs/PERFORMANCE.md cites the pair.
func BenchmarkE20SemiJoin(b *testing.B) {
	spec := workload.SemiJoinSpec{
		DirectoryRecords: 40, DetailSources: 3, DetailRecords: 800, Seed: 20,
	}
	const q = "SELECT product WHERE water_resistance >= 100"
	modes := []struct {
		name string
		opts extract.Options
	}{
		{"semijoin", extract.Options{}},
		{"nosemijoin", extract.Options{DisableSemiJoin: true}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			world := workload.MustGenerateSemiJoin(spec)
			mw, err := core.NewWithCatalog(world.Ontology, world.Catalog, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := world.Apply(mw); err != nil {
				b.Fatal(err)
			}
			if err := mw.SetClassKey("watch", "thing.product.model"); err != nil {
				b.Fatal(err)
			}
			if _, err := mw.Query(context.Background(), q); err != nil { // warm compiled rules
				b.Fatal(err)
			}
			benchQuery(b, mw, q)
		})
	}
}

// firstWriteTimer records when the first non-empty write lands,
// relative to start, and discards the bytes.
type firstWriteTimer struct {
	start time.Time
	first time.Duration
	set   bool
}

func (f *firstWriteTimer) Write(p []byte) (int, error) {
	if !f.set && len(p) > 0 {
		f.first = time.Since(f.start)
		f.set = true
	}
	return len(p), nil
}

// BenchmarkE21FirstInstance — barrier-free streaming: a merge-free
// four-source query where one source (xml_000, canonically last)
// answers 20ms slow. The eager path (QueryToStream) emits the three
// fast sources' instances as each of them finishes extracting, so the
// first instance reaches the writer in fast-source time; the
// materialized path ("barrier": QueryTo on the same world) serializes
// nothing until the slow source finishes, so its first byte waits out
// the full 20ms. Total query time is the same either way — the custom
// first_instance_ns metric is the measurement, gated by
// `make bench-compare` like ns/op; docs/PERFORMANCE.md cites it.
func BenchmarkE21FirstInstance(b *testing.B) {
	const slowBy = 20 * time.Millisecond
	spec := workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1,
		RecordsPerSource: 24, Seed: 21,
		FlatOntology: true,
	}
	const q = "SELECT product"
	modes := []struct {
		name  string
		query func(ctx context.Context, mw *core.Middleware, w io.Writer) (*instance.Result, error)
	}{
		{"eager", func(ctx context.Context, mw *core.Middleware, w io.Writer) (*instance.Result, error) {
			res, _, err := mw.QueryToStream(ctx, w, q, instance.FormatJSON)
			return res, err
		}},
		{"barrier", func(ctx context.Context, mw *core.Middleware, w io.Writer) (*instance.Result, error) {
			return mw.QueryTo(ctx, w, q, instance.FormatJSON)
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			world := workload.MustGenerate(spec)
			backends := extract.FromCatalog(world.Catalog)
			plan := faultinject.Plan{}
			for _, def := range world.Definitions {
				if def.ID == "xml_000" {
					plan[faultinject.Key(def)] = faultinject.Fault{AddLatency: slowBy}
				}
			}
			backends = faultinject.New(21, plan).WrapBackends(backends)
			mw, err := core.New(core.Config{Ontology: world.Ontology, Backends: backends})
			if err != nil {
				b.Fatal(err)
			}
			if err := world.Apply(mw); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, mergeFree, err := mw.PlanMergeFree(ctx, q); err != nil || !mergeFree {
				b.Fatalf("query must prove merge-free (err=%v)", err)
			}
			if _, err := mode.query(ctx, mw, io.Discard); err != nil {
				b.Fatal(err) // warm compiled rules
			}
			var firstTotal time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw := &firstWriteTimer{start: time.Now()}
				res, err := mode.query(ctx, mw, fw)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Matched) == 0 || !fw.set {
					b.Fatal("no instances reached the writer")
				}
				firstTotal += fw.first
			}
			b.StopTimer()
			b.ReportMetric(float64(firstTotal.Nanoseconds())/float64(b.N), "first_instance_ns")
		})
	}
}

// BenchmarkE22Batch — the multi-query batch path: eight distinct
// single-brand queries against a world whose two web sources answer
// with a 5ms fetch latency (remote partner catalogues — the paper's
// B2B setting). Eight sequential Query calls each stand up their own
// run document layer, so every query re-fetches and re-parses both
// pages; one QueryBatchTo shares a single document layer and extraction
// scatter across the batch, fetching each page once (rule results are
// never cached, so nothing else amortizes the repeats). One benchmark op answers all eight queries in both
// modes, so ns/op is directly comparable ns-per-batch;
// docs/PERFORMANCE.md cites the pair.
func BenchmarkE22Batch(b *testing.B) {
	const fetchLatency = 5 * time.Millisecond
	spec := workload.Spec{
		DBSources: 1, XMLSources: 1, WebSources: 2, TextSources: 1,
		RecordsPerSource: 60, Seed: 22,
	}
	brands := []string{"Seiko", "Casio", "Citizen", "Orient", "Pulsar", "Timex", "Swatch", "Fossil"}
	queries := make([]string, len(brands))
	for i, brand := range brands {
		queries[i] = "SELECT product WHERE brand='" + brand + "'"
	}
	newMW := func(b *testing.B) *core.Middleware {
		world := workload.MustGenerate(spec)
		plan := faultinject.Plan{}
		for _, def := range world.Definitions {
			if def.Kind == datasource.KindWeb {
				plan[faultinject.Key(def)] = faultinject.Fault{AddLatency: fetchLatency}
			}
		}
		backends := faultinject.New(22, plan).WrapBackends(extract.FromCatalog(world.Catalog))
		mw, err := core.New(core.Config{Ontology: world.Ontology, Backends: backends})
		if err != nil {
			b.Fatal(err)
		}
		if err := world.Apply(mw); err != nil {
			b.Fatal(err)
		}
		return mw
	}
	b.Run("batch8", func(b *testing.B) {
		mw := newMW(b)
		ctx := context.Background()
		run := func() {
			results, errs := mw.QueryBatchTo(ctx, queries, instance.FormatOWL, nil, nil)
			for i := range queries {
				if errs[i] != nil {
					b.Fatal(errs[i])
				}
				if len(results[i].Matched) == 0 {
					b.Fatalf("query %d matched nothing", i)
				}
			}
		}
		run() // warm compiled rules
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	b.Run("sequential8", func(b *testing.B) {
		mw := newMW(b)
		ctx := context.Background()
		run := func() {
			for i, q := range queries {
				res, err := mw.Query(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Matched) == 0 {
					b.Fatalf("query %d matched nothing", i)
				}
			}
		}
		run() // warm compiled rules
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}
