package instance

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/mapping"
	"repro/internal/ontology"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/s2sql"
)

// serializeString is Serialize into a string, for the package's tests
// that compare or parse whole documents.
func serializeString(g *Generator, res *Result, f Format) (string, error) {
	var b strings.Builder
	err := g.Serialize(&b, res, f)
	return b.String(), err
}

// world builds generator fixtures around the paper ontology.
type world struct {
	ont  *ontology.Ontology
	repo *mapping.Repository
	gen  *Generator
}

func newWorld(t *testing.T) *world {
	t.Helper()
	ont := ontology.Paper()
	repo := mapping.NewRepository(ont, datasource.NewRegistry())
	return &world{ont: ont, repo: repo, gen: NewGenerator(ont, repo)}
}

func plan(t *testing.T, ont *ontology.Ontology, q string) *s2sql.Plan {
	t.Helper()
	p, err := s2sql.ParseAndPlan(q, ont)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// attrsOf builds an Instance.Attrs list from a map of attribute values:
// sorted by ID, nil for a nil map.
func attrsOf(m map[string][]string) []Attr {
	if m == nil {
		return nil
	}
	out := make([]Attr, 0, len(m))
	for id, vs := range m {
		out = append(out, Attr{ID: id, Values: vs})
	}
	slices.SortFunc(out, func(a, b Attr) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// linksOf builds an Instance.Links list from a map of relation targets:
// sorted by name, nil for a nil map.
func linksOf(m map[string][]*Instance) []Link {
	if m == nil {
		return nil
	}
	out := make([]Link, 0, len(m))
	for name, ts := range m {
		out = append(out, Link{Name: name, Targets: ts})
	}
	slices.SortFunc(out, func(a, b Link) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// valueMap projects an instance's Attrs onto a map: nil for nil Attrs.
func valueMap(in *Instance) map[string][]string {
	if in.Attrs == nil {
		return nil
	}
	m := make(map[string][]string, len(in.Attrs))
	for _, a := range in.Attrs {
		m[a.ID] = a.Values
	}
	return m
}

// linkMap projects an instance's Links onto a map.
func linkMap(in *Instance) map[string][]*Instance {
	m := make(map[string][]*Instance, len(in.Links))
	for _, l := range in.Links {
		m[l.Name] = l.Targets
	}
	return m
}

func frag(attr, source string, values ...string) extract.Fragment {
	return extract.Fragment{AttributeID: attr, SourceID: source, Scenario: mapping.MultiRecord, Values: values}
}

// TestPaperScenario reproduces §2.5 end to end at the generator level: two
// records, one matching brand=Seiko AND case=stainless-steel, provider
// attached, output classes product/watch/provider.
func TestPaperScenario(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product WHERE brand='Seiko' AND case='stainless-steel'")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "DB_ID_45", "Seiko", "Casio"),
		frag("thing.product.watch.case", "DB_ID_45", "stainless-steel", "resin"),
		frag("thing.provider.name", "DB_ID_45", "TimeHouse"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 1 {
		t.Fatalf("matched = %+v", res.Matched)
	}
	m := res.Matched[0]
	if m.Class.Name != "watch" {
		t.Errorf("matched class = %s, want watch (most specific)", m.Class.Name)
	}
	if m.Value("thing.product.brand") != "Seiko" || m.Value("thing.product.watch.case") != "stainless-steel" {
		t.Errorf("matched values = %+v", m.Attrs)
	}
	// Provider is attached through the relation and listed as related.
	if len(linkMap(m)["hasProvider"]) != 1 {
		t.Fatalf("links = %+v", m.Links)
	}
	if len(res.Related) != 1 || res.Related[0].Class.Name != "provider" {
		t.Fatalf("related = %+v", res.Related)
	}
	if res.Related[0].Value("thing.provider.name") != "TimeHouse" {
		t.Errorf("provider name = %q", res.Related[0].Value("thing.provider.name"))
	}
}

func TestPositionalCorrelation(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "src", "A", "B", "C"),
		frag("thing.product.model", "src", "m1", "m2", "m3"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 3 {
		t.Fatalf("matched = %d", len(res.Matched))
	}
	for _, in := range res.Matched {
		b, m := in.Value("thing.product.brand"), in.Value("thing.product.model")
		want := map[string]string{"A": "m1", "B": "m2", "C": "m3"}
		if want[b] != m {
			t.Errorf("record pairing broken: brand=%s model=%s", b, m)
		}
	}
}

func TestRaggedRecords(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "src", "A", "B"),
		frag("thing.product.model", "src", "m1"), // second record lacks model
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 2 {
		t.Fatalf("matched = %d", len(res.Matched))
	}
	var withModel, withoutModel int
	for _, in := range res.Matched {
		if in.Value("thing.product.model") == "" {
			withoutModel++
		} else {
			withModel++
		}
	}
	if withModel != 1 || withoutModel != 1 {
		t.Errorf("model distribution = %d/%d", withModel, withoutModel)
	}
}

func TestSeparateLineagesSeparateInstances(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "src", "A"),
		frag("thing.provider.name", "src", "P1"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One product instance; the provider must NOT merge into it.
	if len(res.Matched) != 1 || res.Matched[0].Class.Name != "product" {
		t.Fatalf("matched = %+v", res.Matched)
	}
	if _, has := valueMap(res.Matched[0])["thing.provider.name"]; has {
		t.Error("provider value leaked into product instance")
	}
	if len(res.Related) != 1 || res.Related[0].Class.Name != "provider" {
		t.Fatalf("related = %+v", res.Related)
	}
}

func TestCrossSourceDistinctWithoutKey(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "s1", "Seiko"),
		frag("thing.product.brand", "s2", "Seiko"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 2 {
		t.Fatalf("matched = %d, want 2 distinct instances", len(res.Matched))
	}
}

func TestCrossSourceMergeWithKey(t *testing.T) {
	w := newWorld(t)
	if err := w.repo.SetClassKey("product", "thing.product.model"); err != nil {
		t.Fatal(err)
	}
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.model", "s1", "F91W"),
		frag("thing.product.brand", "s1", "Casio"),
		frag("thing.product.model", "s2", "F91W"),
		frag("thing.product.price", "s2", "15.0"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 1 {
		t.Fatalf("matched = %+v", res.Matched)
	}
	in := res.Matched[0]
	if in.Value("thing.product.brand") != "Casio" || in.Value("thing.product.price") != "15.0" {
		t.Errorf("merged values = %+v", in.Attrs)
	}
	if len(in.Sources) != 2 {
		t.Errorf("sources = %v", in.Sources)
	}
}

func TestConditionOperators(t *testing.T) {
	w := newWorld(t)
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "s", "Seiko", "Casio", "Citizen"),
		frag("thing.product.price", "s", "129.99", "15", "210.5"),
	}}
	cases := []struct {
		query string
		want  int
	}{
		{"SELECT product WHERE price < 100", 1},
		{"SELECT product WHERE price >= 129.99", 2},
		{"SELECT product WHERE price <= 15", 1},
		{"SELECT product WHERE price > 1000", 0},
		{"SELECT product WHERE brand != 'Seiko'", 2},
		{"SELECT product WHERE brand LIKE 'C%'", 2},
		{"SELECT product WHERE brand LIKE '_asio'", 1},
		{"SELECT product WHERE brand = 'Seiko' AND price < 200", 1},
		{"SELECT product WHERE brand = 'Seiko' AND price > 200", 0},
		{"SELECT product", 3},
	}
	for _, c := range cases {
		p := plan(t, w.ont, c.query)
		res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
		if err != nil {
			t.Errorf("%s: %v", c.query, err)
			continue
		}
		if len(res.Matched) != c.want {
			t.Errorf("%s: matched %d, want %d", c.query, len(res.Matched), c.want)
		}
	}
}

func TestConditionOnMissingValueFails(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product WHERE case = 'resin'")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "s", "Seiko"), // no case value extracted
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 0 {
		t.Fatalf("matched = %+v", res.Matched)
	}
}

func TestNonNumericValueUnderNumericConditionReportsError(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product WHERE price < 100")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "s", "Seiko"),
		frag("thing.product.price", "s", "not-a-price"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 0 {
		t.Errorf("matched = %+v", res.Matched)
	}
	if len(res.Errors) == 0 {
		t.Error("conversion failure not reported")
	}
}

func TestBooleanConditions(t *testing.T) {
	ont := ontology.MustNew("http://e/#", "bools", "thing")
	if _, err := ont.AddClass("item", "thing"); err != nil {
		t.Fatal(err)
	}
	if _, err := ont.AddAttribute("item", "active", rdf.XSDBoolean); err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(ont, nil)
	p, err := s2sql.ParseAndPlan("SELECT item WHERE active = TRUE", ont)
	if err != nil {
		t.Fatal(err)
	}
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.item.active", "s", "true", "false", "1", "no"),
	}}
	res, err := gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 2 {
		t.Fatalf("matched = %d, want 2", len(res.Matched))
	}
}

func TestErrorsAndMissingPropagate(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{
		Fragments: []extract.Fragment{frag("thing.product.brand", "s", "A")},
		Errors:    []extract.SourceError{{SourceID: "dead", Err: strings.NewReader("").UnreadByte()}},
		Missing:   []string{"thing.product.price"},
	}
	// UnreadByte returns a real error; any error value works here.
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 || len(res.Missing) != 1 {
		t.Errorf("errors/missing = %v / %v", res.Errors, res.Missing)
	}
}

func TestUnknownAttributeFragment(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.nosuch", "s", "x"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %v", res.Errors)
	}
}

func TestDeterministicIDs(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "s", "B", "A"),
	}}
	res1, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Matched {
		if res1.Matched[i].ID != res2.Matched[i].ID ||
			res1.Matched[i].Value("thing.product.brand") != res2.Matched[i].Value("thing.product.brand") {
			t.Fatalf("nondeterministic generation: %+v vs %+v", res1.Matched[i], res2.Matched[i])
		}
	}
}

func paperResult(t *testing.T, w *world) *Result {
	t.Helper()
	p := plan(t, w.ont, "SELECT product WHERE brand='Seiko' AND case='stainless-steel'")
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("thing.product.brand", "DB_ID_45", "Seiko", "Casio"),
		frag("thing.product.watch.case", "DB_ID_45", "stainless-steel", "resin"),
		frag("thing.product.price", "DB_ID_45", "129.99", "15"),
		frag("thing.provider.name", "DB_ID_45", "TimeHouse"),
	}}
	res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOWLOutput(t *testing.T) {
	w := newWorld(t)
	res := paperResult(t, w)
	out, err := serializeString(w.gen, res, FormatOWL)
	if err != nil {
		t.Fatal(err)
	}
	// The OWL parses back into RDF with the expected assertions.
	graph, err := owl.ParseRDFXML(strings.NewReader(out))
	if err != nil {
		t.Fatalf("output is not valid RDF/XML: %v\n%s", err, out)
	}
	watchIRI := rdf.IRI(string(ontology.PaperBase) + "watch_1")
	if got := graph.FirstObject(watchIRI, rdf.IRI(string(ontology.PaperBase)+"thing_product_brand")); got == nil {
		t.Errorf("brand assertion missing:\n%s", out)
	}
	types := graph.Objects(watchIRI, rdf.RDFType)
	if len(types) != 2 {
		t.Errorf("types = %v", types)
	}
	// Relation assertion present.
	if got := graph.Objects(watchIRI, rdf.IRI(string(ontology.PaperBase)+"product_hasProvider")); len(got) != 1 {
		t.Errorf("hasProvider = %v", got)
	}
	// Typed literal for price.
	priceObj := graph.FirstObject(watchIRI, rdf.IRI(string(ontology.PaperBase)+"thing_product_price"))
	if lit, ok := priceObj.(rdf.Literal); !ok || lit.Datatype != rdf.XSDDecimal {
		t.Errorf("price literal = %v", priceObj)
	}
}

func TestTurtleAndNTriplesOutputs(t *testing.T) {
	w := newWorld(t)
	res := paperResult(t, w)
	ttl, err := serializeString(w.gen, res, FormatTurtle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rdf.ParseTurtle(strings.NewReader(ttl)); err != nil {
		t.Errorf("turtle output unparseable: %v\n%s", err, ttl)
	}
	nt, err := serializeString(w.gen, res, FormatNTriples)
	if err != nil {
		t.Fatal(err)
	}
	ntGraph, err := rdf.ParseNTriples(strings.NewReader(nt))
	if err != nil {
		t.Fatalf("ntriples output unparseable: %v", err)
	}
	ttlGraph, _ := rdf.ParseTurtle(strings.NewReader(ttl))
	if !ntGraph.Equal(ttlGraph) {
		t.Error("turtle and ntriples outputs disagree")
	}
}

func TestXMLJSONTextOutputs(t *testing.T) {
	w := newWorld(t)
	res := paperResult(t, w)
	xmlOut, err := serializeString(w.gen, res, FormatXML)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`class="thing.product.watch"`, `id="thing.product.brand"`, "Seiko", `<relation name="hasProvider" target="provider_1"/>`} {
		if !strings.Contains(xmlOut, want) {
			t.Errorf("xml output missing %q:\n%s", want, xmlOut)
		}
	}
	jsonOut, err := serializeString(w.gen, res, FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"query"`, `"watch_1"`, `"TimeHouse"`} {
		if !strings.Contains(jsonOut, want) {
			t.Errorf("json output missing %q:\n%s", want, jsonOut)
		}
	}
	textOut, err := serializeString(w.gen, res, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(textOut, "matched: 1") || !strings.Contains(textOut, "hasProvider -> provider_1") {
		t.Errorf("text output:\n%s", textOut)
	}
}

func TestProvenanceAnnotations(t *testing.T) {
	w := newWorld(t)
	w.gen.Provenance = true
	res := paperResult(t, w)
	graph, err := w.gen.ToGraph(res)
	if err != nil {
		t.Fatal(err)
	}
	watchIRI := rdf.IRI(string(ontology.PaperBase) + "watch_1")
	provs := graph.Objects(watchIRI, SourcedFrom)
	if len(provs) != 1 {
		t.Fatalf("provenance triples = %v", provs)
	}
	if lit, ok := provs[0].(rdf.Literal); !ok || lit.Value != "DB_ID_45" {
		t.Errorf("provenance = %v", provs[0])
	}
	// Provenance rides through OWL serialization.
	out, err := serializeString(w.gen, res, FormatOWL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sourcedFrom") || !strings.Contains(out, "DB_ID_45") {
		t.Errorf("OWL output lacks provenance:\n%.400s", out)
	}
	// Disabled by default.
	w.gen.Provenance = false
	graph2, err := w.gen.ToGraph(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(graph2.Match(nil, SourcedFrom, nil)) != 0 {
		t.Error("provenance emitted when disabled")
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{
		"owl": FormatOWL, "TTL": FormatTurtle, "nt": FormatNTriples,
		"xml": FormatXML, "json": FormatJSON, "plain": FormatText,
	} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("unknown format parsed")
	}
	for _, f := range []Format{FormatOWL, FormatTurtle, FormatNTriples, FormatXML, FormatJSON, FormatText} {
		if got, err := ParseFormat(f.String()); err != nil || got != f {
			t.Errorf("format %d: ParseFormat(%q) = %v, %v", int(f), f.String(), got, err)
		}
	}
	// Values outside the table print as numbers and do not serialize.
	w := newWorld(t)
	res := paperResult(t, w)
	for _, f := range []Format{0, 7} {
		if got, want := f.String(), fmt.Sprintf("Format(%d)", int(f)); got != want {
			t.Errorf("Format(%d).String() = %q, want %q", int(f), got, want)
		}
		if _, err := serializeString(w.gen, res, f); err == nil {
			t.Errorf("Serialize in Format(%d) succeeded", int(f))
		}
	}
}

// TestEagerBitMatchesWriter checks every format's eager declaration
// against its writer: EagerFormat holds exactly when the head written
// against the plan alone equals the complete result's head and the head
// returns res.Matched as the walk. JSON and XML are eager; text's head
// prints counts and RDF walks its subjects sorted, with related ones.
func TestEagerBitMatchesWriter(t *testing.T) {
	w := newWorld(t)
	res := failedResult(t, w)
	if len(res.Matched) == 0 || len(res.Related) == 0 || len(res.Errors) == 0 || len(res.Missing) == 0 {
		t.Fatal("fixture lacks matched or related instances, errors or missing attributes")
	}
	head := func(f Format, r *Result) (string, []*Instance) {
		var b bytes.Buffer
		walk, err := formats[f].writer(w.gen).head(&b, r)
		if err != nil {
			t.Fatal(err)
		}
		return b.String(), walk
	}
	var eager []Format
	for f := FormatOWL; int(f) < len(formats); f++ {
		planHead, _ := head(f, &Result{Plan: res.Plan})
		fullHead, walk := head(f, res)
		holds := planHead == fullHead && len(walk) == len(res.Matched) && &walk[0] == &res.Matched[0]
		if EagerFormat(f) != holds {
			t.Errorf("%s: EagerFormat = %v, but the writer's head and walk say %v", f, EagerFormat(f), holds)
		}
		if EagerFormat(f) {
			eager = append(eager, f)
		}
	}
	if !slices.Equal(eager, []Format{FormatXML, FormatJSON}) {
		t.Errorf("eager formats = %v, want [xml json]", eager)
	}
}

// TestOntologyIndependence is the §2.6 property: the generator works for
// any ontology + consistent fragments, and its output re-validates against
// the ontology (every asserted class and property is declared).
func TestOntologyIndependence(t *testing.T) {
	ont := ontology.MustNew("http://other.example/ns#", "books", "entity")
	for _, c := range []struct{ name, parent string }{
		{"publication", "entity"}, {"book", "publication"}, {"author", "entity"},
	} {
		if _, err := ont.AddClass(c.name, c.parent); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []struct{ class, name string }{
		{"publication", "title"}, {"book", "isbn"}, {"author", "name"},
	} {
		if _, err := ont.AddAttribute(a.class, a.name, rdf.XSDString); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ont.AddRelation("publication", "writtenBy", "author"); err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(ont, nil)
	p, err := s2sql.ParseAndPlan("SELECT publication WHERE title = 'Dune'", ont)
	if err != nil {
		t.Fatal(err)
	}
	rs := &extract.ResultSet{Fragments: []extract.Fragment{
		frag("entity.publication.title", "lib", "Dune", "Other"),
		frag("entity.publication.book.isbn", "lib", "9780441013593", "x"),
		frag("entity.author.name", "lib", "Frank Herbert"),
	}}
	res, err := gen.GenerateOpts(p, rs, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 1 || res.Matched[0].Class.Name != "book" {
		t.Fatalf("matched = %+v", res.Matched)
	}
	graph, err := gen.ToGraph(res)
	if err != nil {
		t.Fatal(err)
	}
	schema := ont.ToGraph()
	for _, tr := range graph.All() {
		pred, ok := tr.Predicate.(rdf.IRI)
		if !ok || pred == rdf.RDFType {
			continue
		}
		if len(schema.Match(pred, rdf.RDFType, nil)) == 0 {
			t.Errorf("output uses undeclared property %s", pred)
		}
	}
}
