package instance

// rdfwriter_test.go holds the direct RDF writer to its specification:
// for every result, each RDF format must be byte-identical to the graph
// writer of that format fed ToGraph (owl.WriteRDFXML, rdf.WriteTurtle,
// rdf.WriteNTriples), followed by the error report. Cases: generated
// worlds over both paper ontologies, hand-built results that stress
// ordering, deduplication and escaping, and a fuzz target over literal
// values and instance counts.

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/mapping"
	"repro/internal/ontology"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/s2sql"
	"repro/internal/workload"
)

var rdfFormats = []Format{FormatOWL, FormatTurtle, FormatNTriples}

// graphDocument is the oracle: res through ToGraph and the graph writer
// of the format.
func graphDocument(g *Generator, res *Result, format Format) (string, error) {
	graph, err := g.ToGraph(res)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	switch format {
	case FormatOWL:
		err = owl.WriteRDFXML(&b, graph, g.prefixes())
	case FormatTurtle:
		err = rdf.WriteTurtle(&b, graph, g.prefixes())
	default:
		err = rdf.WriteNTriples(&b, graph)
	}
	return b.String(), err
}

// checkMatchesGraph compares every RDF format of res with the oracle.
// The error report is stripped first; it must be all that follows the
// document.
func checkMatchesGraph(t *testing.T, g *Generator, res *Result, name string) {
	t.Helper()
	for _, f := range rdfFormats {
		want, err := graphDocument(g, res, f)
		if err != nil {
			t.Fatalf("%s/%s: oracle: %v", name, f, err)
		}
		got, err := serializeString(g, res, f)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, f, err)
		}
		epilog := appendErrorReport(nil, res, formats[f].writer(g).(*rdfDoc).syntax.comments)
		body, ok := strings.CutSuffix(got, string(epilog))
		if !ok || body != want {
			t.Fatalf("%s/%s: direct writer diverges from the graph writer at byte %d\n--- direct ---\n%s\n--- graph ---\n%s",
				name, f, firstDiff(got, want), got, want)
		}
	}
}

func firstDiff(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// generatedResult extracts and generates one query over a world.
func generatedResult(t *testing.T, world *workload.World, classKey bool, query string) (*Generator, *Result) {
	t.Helper()
	gen, p, rs := extracted(t, world, classKey, query)
	res, err := gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return gen, res
}

// extracted runs query's extraction over world, with product keyed by
// model when classKey is set, and returns the generator, the plan and
// the fragments the generator would assemble.
func extracted(t *testing.T, world *workload.World, classKey bool, query string) (*Generator, *s2sql.Plan, *extract.ResultSet) {
	t.Helper()
	reg := datasource.NewRegistry()
	for _, def := range world.Definitions {
		if err := reg.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	repo := mapping.NewRepository(world.Ontology, reg)
	for _, e := range world.Entries {
		if err := repo.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	if classKey {
		if err := repo.SetClassKey("product", "thing.product.model"); err != nil {
			t.Fatal(err)
		}
	}
	p := plan(t, world.Ontology, query)
	mgr := extract.NewManager(repo, extract.FromCatalog(world.Catalog), extract.Options{})
	schema, err := mgr.Schema(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := mgr.ExtractQuery(context.Background(), schema)
	if err != nil {
		t.Fatal(err)
	}
	return NewGenerator(world.Ontology, repo), p, rs
}

// TestRDFWritersMatchGraph runs the oracle over 12 generated worlds (the
// paper and flat ontologies, every source kind, 1–13 records per source,
// class-key merging in a third of them) × 6 queries × provenance on and
// off × 3 formats = 432 documents, then over hand-built results.
func TestRDFWritersMatchGraph(t *testing.T) {
	queries := []string{
		"SELECT product",
		"SELECT watch",
		"SELECT provider",
		"SELECT product WHERE brand = 'Seiko'",
		"SELECT watch WHERE price > 250",
		"SELECT product WHERE brand LIKE 'C%' AND case != 'resin'",
	}
	cases, related := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		world := workload.MustGenerate(workload.Spec{
			DBSources:        int(seed % 2),
			XMLSources:       1,
			WebSources:       int(seed / 2 % 2),
			TextSources:      int(seed / 4 % 2),
			RecordsPerSource: int(1 + seed*5%13),
			Seed:             seed,
			FlatOntology:     seed%4 == 0,
		})
		for _, q := range queries {
			gen, res := generatedResult(t, world, seed%3 == 0, q)
			related += len(res.Related)
			for _, prov := range []bool{false, true} {
				gen.Provenance = prov
				checkMatchesGraph(t, gen, res, fmt.Sprintf("seed=%d/%s/provenance=%v", seed, q, prov))
				cases += len(rdfFormats)
			}
		}
	}
	if cases < 300 || related == 0 {
		t.Fatalf("generated %d documents with %d related instances; want >= 300 and some related", cases, related)
	}

	w := newWorld(t)
	for name, res := range map[string]*Result{
		"paper":       paperResult(t, w),
		"adversarial": adversarialResult(t, w),
		"empty":       {Plan: plan(t, w.ont, "SELECT product")},
	} {
		for _, prov := range []bool{false, true} {
			w.gen.Provenance = prov
			checkMatchesGraph(t, w.gen, res, fmt.Sprintf("%s/provenance=%v", name, prov))
		}
	}
	gen, res := overlappingNamespaceResult(t)
	for _, prov := range []bool{false, true} {
		gen.Provenance = prov
		checkMatchesGraph(t, gen, res, fmt.Sprintf("overlapping-namespace/provenance=%v", prov))
	}
}

// adversarialResult is a hand-built result aimed at the ordering,
// deduplication and escaping rules: IDs 1, 10, 100 and 2; duplicate and
// whitespace-padded values; values that are prefixes of each other in
// one attribute; every character N-Triples or XML escapes; non-ASCII
// text; several sources; links between instances, one of them to an
// instance outside the result; and an instance with no values.
func adversarialResult(t *testing.T, w *world) *Result {
	t.Helper()
	class := func(name string) *ontology.Class {
		c, ok := w.ont.Class(name)
		if !ok {
			t.Fatalf("no class %s", name)
		}
		return c
	}
	watch, product, provider := class("watch"), class("product"), class("provider")
	prov1 := &Instance{ID: "provider_1", Class: provider, Sources: []string{"db_001"},
		Attrs: attrsOf(map[string][]string{"thing.provider.name": {"Zürich Uhren AG", "日本時計"}, "thing.provider.rating": {"4.5", " 4.5 "}})}
	prov2 := &Instance{ID: "provider_2", Class: provider, Sources: []string{"web_001", "xml_001"},
		Attrs: []Attr{{ID: "thing.provider.name", Values: []string{`back\slash "quoted" <tag> & amp`}}}}
	// An ID no syntax writes verbatim: the writers' slow paths.
	odd := &Instance{ID: "provider odd/ü\"{x}.", Class: provider, Sources: []string{"s"},
		Attrs: []Attr{{ID: "thing.provider.country", Values: []string{"PT"}}}}
	orphan := &Instance{Class: provider}
	links := func(ts ...*Instance) map[string][]*Instance { return map[string][]*Instance{"hasProvider": ts} }
	mk := func(id string, c *ontology.Class, values map[string][]string, ls map[string][]*Instance) *Instance {
		return &Instance{ID: id, Class: c, Attrs: attrsOf(values), Links: linksOf(ls), Sources: []string{"db_001", "txt_001"}}
	}
	return &Result{
		Plan: plan(t, w.ont, "SELECT product"),
		Matched: []*Instance{
			mk("watch_2", watch, map[string][]string{
				"thing.product.brand": {"a", "a!", "a b", "ab", "a", " a "},
				"thing.product.model": {"line\nbreak", "tab\there", "cr\rhere", "ctl\x01x"},
			}, links(prov1, prov2)),
			mk("watch_10", watch, map[string][]string{
				"thing.product.brand":                  {"Seiko", "Seiko", "  Seiko\t"},
				"thing.product.price":                  {"129.99", "129.990", "15"},
				"thing.product.watch.water_resistance": {"100", "20"},
			}, links(prov1)),
			mk("watch_1", watch, map[string][]string{"thing.product.watch.case": {"", " ", "stainless-steel"}}, links(orphan)),
			mk("watch_100", watch, map[string][]string{"thing.product.model": {"<5 & \"Sports\">", "'apos'"}}, nil),
			mk("product_1", product, map[string][]string{}, links(prov2, odd, prov1)),
		},
		Related: []*Instance{prov2, odd, prov1},
	}
}

// overlappingNamespaceResult is built on an ontology whose base is a
// prefix of the provenance namespace, so the Turtle writer cannot
// abbreviate instance IRIs by the base alone and shortens each in full.
func overlappingNamespaceResult(t *testing.T) (*Generator, *Result) {
	t.Helper()
	ont := ontology.MustNew("http://s2s.uma.pt/", "catalog", "thing")
	item, err := ont.AddClass("item", "thing")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ont.AddAttribute("item", "name", rdf.XSDString); err != nil {
		t.Fatal(err)
	}
	if _, err := ont.AddRelation("item", "next", "item"); err != nil {
		t.Fatal(err)
	}
	second := &Instance{ID: "item_2", Class: item, Sources: []string{"s1"}, Attrs: []Attr{{ID: "thing.item.name", Values: []string{"two"}}}}
	first := &Instance{ID: "item_1", Class: item, Sources: []string{"s1", "s2"}, Attrs: []Attr{{ID: "thing.item.name", Values: []string{"one"}}},
		Links: []Link{{Name: "next", Targets: []*Instance{second}}}}
	return NewGenerator(ont, nil), &Result{Plan: plan(t, ont, "SELECT item"), Matched: []*Instance{first, second}}
}

// FuzzRDFWritersMatchGraph runs the oracle over fuzzed literal values
// spread across a fuzzed number of instances: the input is split on '|'
// and instance i takes fields i, i+1, … as its attribute values. The
// seed corpus runs in every `go test`.
func FuzzRDFWritersMatchGraph(f *testing.F) {
	f.Add("Seiko|Casio| Casio |129.99", uint8(3))
	f.Add(`a|a!|a b|ab|\|"|<&>|'`, uint8(11))
	f.Add("line\nbreak|tab\t|cr\r|\x00\x01\x7f", uint8(2))
	f.Add("Zürich|日本|\xff\xfe|\xef\xbf\xbd", uint8(4))
	f.Add("", uint8(0))
	f.Add("x", uint8(200))
	attrs := []string{"thing.product.brand", "thing.product.model", "thing.product.price", "thing.product.watch.case"}
	f.Fuzz(func(t *testing.T, values string, n uint8) {
		w := newWorld(t)
		watch, _ := w.ont.Class("watch")
		provider, _ := w.ont.Class("provider")
		fields := strings.Split(values, "|")
		prov := &Instance{ID: "provider_1", Class: provider, Sources: []string{fields[0]},
			Attrs: []Attr{{ID: "thing.provider.name", Values: fields[:1]}}}
		res := &Result{Plan: plan(t, w.ont, "SELECT product"), Related: []*Instance{prov}}
		for i := 0; i < int(n%24)+1; i++ {
			vs := map[string][]string{}
			for j := 0; j < len(fields); j++ {
				attr := attrs[(i+j)%len(attrs)]
				vs[attr] = append(vs[attr], fields[(i+j)%len(fields)])
			}
			in := &Instance{ID: fmt.Sprintf("watch_%d", i+1), Class: watch, Attrs: attrsOf(vs),
				Sources: []string{"s"}, Links: []Link{{Name: "hasProvider", Targets: []*Instance{prov}}}}
			res.Matched = append(res.Matched, in)
		}
		w.gen.Provenance = n&1 == 1
		checkMatchesGraph(t, w.gen, res, "fuzz")
	})
}

// TestRDFErrorsBeforeFirstByte: an answer the RDF writer cannot express
// fails before anything reaches the wire, even when the offending
// instance is the last subject of a document far larger than one chunk.
func TestRDFErrorsBeforeFirstByte(t *testing.T) {
	w := newWorld(t)
	watch, _ := w.ont.Class("watch")
	build := func() *Result {
		res := &Result{Plan: plan(t, w.ont, "SELECT watch")}
		for i := 1; i <= 600; i++ {
			res.Matched = append(res.Matched, &Instance{ID: fmt.Sprintf("watch_%d", i), Class: watch,
				Attrs: []Attr{{ID: "thing.product.model", Values: []string{strings.Repeat("m", 64)}}}})
		}
		return res
	}
	// watch_9 is the last subject: '>' closes every IRI key and sorts
	// after every digit, so watch_9 follows watch_99 and watch_599.
	last := func(res *Result) *Instance { return res.Matched[8] }
	for _, c := range []struct {
		name, want string
		spoil      func(*Instance)
	}{
		{"unknown attribute", `instance: watch_9 has value for unknown attribute "thing.product.nosuch"`,
			func(in *Instance) {
				in.Attrs = append(in.Attrs, Attr{ID: "thing.product.nosuch", Values: []string{"x"}})
			}},
		{"unknown relation", `instance: watch_9 links through unknown relation "nosuch"`,
			func(in *Instance) { in.Links = []Link{{Name: "nosuch"}} }},
	} {
		for _, f := range rdfFormats {
			var clean bytes.Buffer
			if _, err := w.gen.SerializeChunked(&clean, build(), f); err != nil {
				t.Fatal(err)
			}
			if clean.Len() < 2*DefaultChunkSize || !strings.Contains(clean.String(), "watch_9") {
				t.Fatalf("%s: fixture document is %d bytes, want a multi-chunk document", f, clean.Len())
			}
			res := build()
			c.spoil(last(res))
			var out bytes.Buffer
			_, err := w.gen.SerializeChunked(&out, res, f)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s/%s: err = %v, want %q", c.name, f, err, c.want)
			}
			if out.Len() != 0 {
				t.Errorf("%s/%s: %d bytes written before the error", c.name, f, out.Len())
			}
		}
	}
}

// failedResult is the paper result with a failed source and an unmapped
// attribute; the error message carries the characters each comment
// syntax must neutralize.
func failedResult(t *testing.T, w *world) *Result {
	t.Helper()
	res := paperResult(t, w)
	res.Errors = append(res.Errors, extract.SourceError{SourceID: "web_001", AttributeID: "thing.product.price",
		Err: errors.New("fetch failed -- connection reset\nafter 3 retries")})
	res.Missing = append(res.Missing, "thing.product.watch.movement")
	return res
}

// TestOWLErrorReportIsWellFormed decodes a whole RDF/XML answer, its
// error report included, token by token: no run of hyphens in an error
// or an unmapped attribute may leave "--" inside the report's comment.
// (owl.ParseRDFXML stops at </rdf:RDF> and never reads the report.)
func TestOWLErrorReportIsWellFormed(t *testing.T) {
	w := newWorld(t)
	for _, msg := range []string{"a---b", "----", "x-"} {
		res := paperResult(t, w)
		res.Errors = append(res.Errors, extract.SourceError{SourceID: "web_001", AttributeID: "thing.product.price", Err: errors.New(msg)})
		res.Missing = append(res.Missing, msg)
		out, err := serializeString(w.gen, res, FormatOWL)
		if err != nil {
			t.Fatal(err)
		}
		dec := xml.NewDecoder(strings.NewReader(out))
		for {
			if _, err := dec.Token(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("%q: answer is not well-formed XML: %v\n%s", msg, err, out)
			}
		}
	}
}

// TestFailedSourceReportedInEveryRDFFormat pins the error report after
// each RDF syntax — an XML comment after RDF/XML, '#' comments after
// Turtle and N-Triples — and checks that every document still parses to
// the answer's graph.
func TestFailedSourceReportedInEveryRDFFormat(t *testing.T) {
	w := newWorld(t)
	res := failedResult(t, w)
	want, err := w.gen.ToGraph(res)
	if err != nil {
		t.Fatal(err)
	}
	parse := map[Format]func(string) (*rdf.Graph, error){
		FormatOWL:      func(s string) (*rdf.Graph, error) { return owl.ParseRDFXML(strings.NewReader(s)) },
		FormatTurtle:   func(s string) (*rdf.Graph, error) { return rdf.ParseTurtle(strings.NewReader(s)) },
		FormatNTriples: func(s string) (*rdf.Graph, error) { return rdf.ParseNTriples(strings.NewReader(s)) },
	}
	for f, golden := range map[Format]string{
		FormatOWL: "paper_failed.owl", FormatTurtle: "paper_failed.ttl", FormatNTriples: "paper_failed.nt",
	} {
		out, err := serializeString(w.gen, res, f)
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, golden, out)
		for _, line := range []string{"s2s:error-report", "error: source web_001", "unmapped: thing.product.watch.movement"} {
			if !strings.Contains(out, line) {
				t.Errorf("%s: report lacks %q", f, line)
			}
		}
		got, err := parse[f](out)
		if err != nil {
			t.Fatalf("%s: answer with an error report does not parse: %v\n%s", f, err, out)
		}
		if !got.Equal(want) {
			t.Errorf("%s: parsed answer is not the result's graph", f)
		}
	}
}
