package core_test

// streaming_test.go proves the query paths' central contract: for every
// query and every format, the chunked entry point (QueryToStream — eager
// where the planner proves the query merge-free and the format allows
// it, materialized plus chunked serialization otherwise) produces
// byte-identical output to the whole-document entry point (QueryTo).
// This file runs the suite on the paper world (relations: never merge-free, so QueryToStream materializes);
// eager_test.go runs it on the flat world, where every query is eager.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/workload"
)

// queryString is QueryTo into a string: the whole-document answer the
// equivalence suites compare every other path against.
func queryString(ctx context.Context, m *core.Middleware, query string, format instance.Format) (string, error) {
	var b strings.Builder
	_, err := m.QueryTo(ctx, &b, query, format)
	return b.String(), err
}

// equivalenceQueries mirrors the planner's pushdown equivalence suite:
// full scans, equality and LIKE pushdowns, conjunctions, numeric
// ranges, and a query matching nothing.
var equivalenceQueries = []string{
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

func buildEquivalenceWorld(t *testing.T, opts extract.Options) *core.Middleware {
	t.Helper()
	spec := workload.Spec{
		DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2,
		RecordsPerSource: 12,
		Seed:             21,
	}
	world := workload.MustGenerate(spec)
	mw, err := core.New(core.Config{
		Ontology: world.Ontology,
		Backends: extract.FromCatalog(world.Catalog),
		Extract:  opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Apply(mw); err != nil {
		t.Fatal(err)
	}
	return mw
}

var allFormats = []instance.Format{
	instance.FormatOWL, instance.FormatTurtle, instance.FormatNTriples,
	instance.FormatXML, instance.FormatJSON, instance.FormatText,
}

// checkStreamBytesMatchQueryTo runs the 9-query × 6-format suite: on a
// second, identically built world, QueryToStream's bytes must equal
// QueryTo's (the reference) for every query and format.
func checkStreamBytesMatchQueryTo(t *testing.T, build func(*testing.T, extract.Options) *core.Middleware) {
	t.Helper()
	ctx := context.Background()
	ref := build(t, extract.Options{})
	mw := build(t, extract.Options{})
	for _, q := range equivalenceQueries {
		for _, f := range allFormats {
			want, err := queryString(ctx, ref, q, f)
			if err != nil {
				t.Fatalf("QueryTo %q %v: %v", q, f, err)
			}
			var got bytes.Buffer
			if _, _, err := mw.QueryToStream(ctx, &got, q, f); err != nil {
				t.Fatalf("QueryToStream %q %v: %v", q, f, err)
			}
			if got.String() != want {
				t.Errorf("%q %v: QueryToStream diverges from QueryTo\nQueryTo:\n%s\nQueryToStream:\n%s",
					q, f, clip(want), clip(got.String()))
			}
		}
	}
}

// checkStreamResultMatchesQueryTo compares the structured result —
// matched/related counts and the error list — the two entry points
// return alongside the bytes, and that the chunk statistics account for
// every byte.
func checkStreamResultMatchesQueryTo(t *testing.T, build func(*testing.T, extract.Options) *core.Middleware) {
	t.Helper()
	ctx := context.Background()
	ref := build(t, extract.Options{})
	mw := build(t, extract.Options{})
	for _, q := range equivalenceQueries {
		want, err := ref.QueryTo(ctx, io.Discard, q, instance.FormatJSON)
		if err != nil {
			t.Fatalf("QueryTo %q: %v", q, err)
		}
		var body bytes.Buffer
		got, stats, err := mw.QueryToStream(ctx, &body, q, instance.FormatJSON)
		if err != nil {
			t.Fatalf("QueryToStream %q: %v", q, err)
		}
		if len(got.Matched) != len(want.Matched) || len(got.Related) != len(want.Related) {
			t.Errorf("%q: matched/related = %d/%d, want %d/%d",
				q, len(got.Matched), len(got.Related), len(want.Matched), len(want.Related))
		}
		if gs, ws := fmt.Sprint(got.Errors), fmt.Sprint(want.Errors); gs != ws {
			t.Errorf("%q: errors = %s, want %s", q, gs, ws)
		}
		if stats.Bytes != int64(body.Len()) {
			t.Errorf("%q: stats.Bytes = %d, want %d", q, stats.Bytes, body.Len())
		}
	}
}

// TestStreamingEquivalence is the byte-equivalence suite on the paper
// world, where QueryToStream takes the materialized strategy.
func TestStreamingEquivalence(t *testing.T) {
	checkStreamBytesMatchQueryTo(t, buildEquivalenceWorld)
}

// TestStreamingErrorListEquivalence is the structured-result suite on
// the paper world.
func TestStreamingErrorListEquivalence(t *testing.T) {
	checkStreamResultMatchesQueryTo(t, buildEquivalenceWorld)
}

// TestQueryToStreamMatchesQueryTo checks the explicit streaming entry
// point (what the transport's /query/stream serves) against QueryTo on
// the same middleware, and that chunk statistics account for every
// byte.
func TestQueryToStreamMatchesQueryTo(t *testing.T) {
	ctx := context.Background()
	mw := buildEquivalenceWorld(t, extract.Options{})
	for _, q := range equivalenceQueries {
		var want, got bytes.Buffer
		if _, err := mw.QueryTo(ctx, &want, q, instance.FormatJSON); err != nil {
			t.Fatalf("QueryTo %q: %v", q, err)
		}
		_, stats, err := mw.QueryToStream(ctx, &got, q, instance.FormatJSON)
		if err != nil {
			t.Fatalf("QueryToStream %q: %v", q, err)
		}
		if got.String() != want.String() {
			t.Errorf("%q: QueryToStream output diverges from QueryTo", q)
		}
		if stats.Bytes != int64(got.Len()) {
			t.Errorf("%q: stats.Bytes = %d, want %d", q, stats.Bytes, got.Len())
		}
		if stats.Chunks < 1 {
			t.Errorf("%q: stats.Chunks = %d, want >= 1", q, stats.Chunks)
		}
	}
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "...(clipped)"
	}
	return s
}

// lastQueryWasEager reports whether the middleware's most recent traced
// query took the eager path: its generate span carries eager=true.
func lastQueryWasEager(mw *core.Middleware) bool {
	eager := false
	for _, root := range mw.Tracer().Last(1) {
		root.Walk(func(s *obs.Span) {
			if s.Name == "generate" && s.Attrs["eager"] == "true" {
				eager = true
			}
		})
	}
	return eager
}

// TestStreamingEmptySource registers a source whose document yields
// zero records on the flat world, so the query runs eagerly: the eager
// sink must still see the source complete (it sorts first, so every
// other source waits on it) and the output must stay byte-identical.
func TestStreamingEmptySource(t *testing.T) {
	ctx := context.Background()
	spec := workload.Spec{XMLSources: 1, RecordsPerSource: 5, Seed: 21, FlatOntology: true}
	world := workload.MustGenerate(spec)
	world.Catalog.XML.MustAdd("empty.xml", "<catalog></catalog>")
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
	if err := mw.RegisterSource(datasource.Definition{ID: "empty_xml", Kind: datasource.KindXML, Path: "empty.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterMapping(mapping.Entry{
		AttributeID: "thing.product.brand", SourceID: "empty_xml",
		Rule: mapping.Rule{Code: "/catalog/watch/brand"},
	}); err != nil {
		t.Fatal(err)
	}

	want, err := queryString(ctx, mw, "SELECT product", instance.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, _, err := mw.QueryToStream(ctx, &got, "SELECT product", instance.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("empty source: QueryToStream diverges from QueryTo\nwant:\n%s\ngot:\n%s", want, got.String())
	}
	if !lastQueryWasEager(mw) {
		t.Error("QueryToStream did not take the eager path")
	}
}

// TestStreamingQueriesRaceInvalidation is the eager counterpart of
// TestConcurrentQueriesWithInvalidation: eager queries on the flat world
// race catalog mutations (which flush the plan, rule, and result caches
// — and with the plan cache the merge-free verdict) under -race. Every
// query must succeed and the final answer must reflect the last
// mutation.
func TestStreamingQueriesRaceInvalidation(t *testing.T) {
	spec := workload.Spec{XMLSources: 1, RecordsPerSource: 4, Seed: 24, FlatOntology: true}
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

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := mw.QueryToStream(context.Background(), io.Discard, "SELECT product", instance.FormatJSON); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		id := "late_" + string(rune('a'+i))
		world.Catalog.XML.MustAdd(id+".xml", "<catalog><watch><brand>Late"+strings.ToUpper(id)+"</brand></watch></catalog>")
		if err := mw.RegisterSource(datasource.Definition{ID: id, Kind: datasource.KindXML, Path: id + ".xml"}); err != nil {
			t.Fatal(err)
		}
		if err := mw.RegisterMapping(mapping.Entry{
			AttributeID: "thing.product.brand", SourceID: id,
			Rule: mapping.Rule{Code: "/catalog/watch/brand"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	res, _, err := mw.QueryToStream(context.Background(), io.Discard, "SELECT product", instance.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 8 {
		t.Errorf("final matched = %d, want 8 (4 seeded + 4 late)", len(res.Matched))
	}
	if !lastQueryWasEager(mw) {
		t.Error("the final query did not take the eager path")
	}
}
