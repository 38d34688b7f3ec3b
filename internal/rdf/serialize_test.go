package rdf

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func sampleGraph() *Graph {
	g := NewGraph()
	g.MustAdd(T(ex("watch1"), RDFType, ex("Watch")))
	g.MustAdd(T(ex("watch1"), ex("brand"), String("Seiko")))
	g.MustAdd(T(ex("watch1"), ex("case"), String("stainless-steel")))
	g.MustAdd(T(ex("watch1"), ex("price"), Literal{Value: "129.99", Datatype: XSDDecimal}))
	g.MustAdd(T(ex("watch1"), ex("name"), LangString("Mergulhador", "pt")))
	g.MustAdd(T(BlankNode("prov"), ex("supplies"), ex("watch1")))
	return g
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := sampleGraph()
	text := NTriplesString(g)
	parsed, err := ParseNTriples(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseNTriples: %v\ninput:\n%s", err, text)
	}
	if !g.Equal(parsed) {
		t.Fatalf("round trip mismatch:\noriginal:\n%s\nparsed:\n%s", text, NTriplesString(parsed))
	}
}

func TestParseNTriplesSkipsCommentsAndBlankLines(t *testing.T) {
	doc := `
# a comment
<http://e/s> <http://e/p> "v" .

<http://e/s> <http://e/p> _:b0 .
`
	g, err := ParseNTriples(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> "v"`,             // missing dot
		`<http://e/s> <http://e/p> .`,               // missing object
		`"lit" <http://e/p> "v" .`,                  // literal subject
		`<http://e/s> _:b "v" .`,                    // blank predicate
		`<http://e/s> <http://e/p> "unterminated .`, // bad literal
		`<http://e/s <http://e/p> "v" .`,            // unterminated IRI
		`<http://e/s> <http://e/p> "v" . trailing`,  // trailing junk
		`<http://e/s> <http://e/p> "v"^^"notiri" .`, // datatype not IRI
		`<http://e/s> <http://e/p> "v"@ .`,          // empty lang
		`<http://e/s> <http://e/p> "a\qb" .`,        // unknown escape
		`<http://e/s> <http://e/p> "a\u00Zb" .`,     // bad hex
	}
	for _, doc := range bad {
		if _, err := ParseNTriples(strings.NewReader(doc)); err == nil {
			t.Errorf("ParseNTriples accepted %q", doc)
		}
	}
}

func TestParseNTriplesUnicodeEscapes(t *testing.T) {
	doc := `<http://e/s> <http://e/p> "café \U0001F600" .`
	g, err := ParseNTriples(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := g.All()[0].Object.(Literal)
	if !ok || lit.Value != "café 😀" {
		t.Fatalf("got %v, want café 😀", g.All()[0].Object)
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	g := sampleGraph()
	prefixes := PrefixMap{"ex": "http://example.org/", "xsd": XSDNS, "rdf": RDFNS}
	text := TurtleString(g, prefixes)
	parsed, err := ParseTurtle(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseTurtle: %v\ninput:\n%s", err, text)
	}
	if !g.Equal(parsed) {
		t.Fatalf("round trip mismatch:\nserialized:\n%s\nreparsed:\n%s", text, NTriplesString(parsed))
	}
}

func TestTurtleUsesAbbreviations(t *testing.T) {
	g := sampleGraph()
	text := TurtleString(g, PrefixMap{"ex": "http://example.org/"})
	if !strings.Contains(text, "@prefix ex: <http://example.org/> .") {
		t.Errorf("missing prefix declaration:\n%s", text)
	}
	if !strings.Contains(text, "ex:watch1 a ex:Watch") {
		t.Errorf("rdf:type not abbreviated to 'a' or subject not grouped:\n%s", text)
	}
	if !strings.Contains(text, ";") {
		t.Errorf("predicate groups not abbreviated with ';':\n%s", text)
	}
}

func TestParseTurtleHandWritten(t *testing.T) {
	doc := `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
# watches
ex:w1 a ex:Watch ;
    ex:brand "Seiko", "Pulsar" ;
    ex:price 129.99 ;
    ex:jewels 17 ;
    ex:waterproof true ;
    ex:depth 2.0e2 ;
    ex:label "diver"@en .
ex:w2 ex:brand "Casio" .
_:p ex:supplies ex:w1 .
`
	g, err := ParseTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 10
	if g.Len() != wantLen {
		t.Fatalf("Len = %d, want %d\n%s", g.Len(), wantLen, NTriplesString(g))
	}
	checks := []Triple{
		T(IRI("http://example.org/w1"), RDFType, IRI("http://example.org/Watch")),
		T(IRI("http://example.org/w1"), IRI("http://example.org/brand"), String("Pulsar")),
		T(IRI("http://example.org/w1"), IRI("http://example.org/price"), Literal{Value: "129.99", Datatype: XSDDecimal}),
		T(IRI("http://example.org/w1"), IRI("http://example.org/jewels"), Literal{Value: "17", Datatype: XSDInteger}),
		T(IRI("http://example.org/w1"), IRI("http://example.org/waterproof"), Literal{Value: "true", Datatype: XSDBoolean}),
		T(IRI("http://example.org/w1"), IRI("http://example.org/depth"), Literal{Value: "2.0e2", Datatype: XSDDouble}),
		T(IRI("http://example.org/w1"), IRI("http://example.org/label"), LangString("diver", "en")),
		T(BlankNode("p"), IRI("http://example.org/supplies"), IRI("http://example.org/w1")),
	}
	for _, tr := range checks {
		if !g.Has(tr) {
			t.Errorf("missing %s", tr)
		}
	}
}

func TestParseTurtleBase(t *testing.T) {
	doc := `
@base <http://shop.example/catalog/> .
@prefix ex: <http://example.org/> .
<w1> ex:brand "Seiko" .
`
	g, err := ParseTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := T(IRI("http://shop.example/catalog/w1"), IRI("http://example.org/brand"), String("Seiko"))
	if !g.Has(want) {
		t.Fatalf("base not applied:\n%s", NTriplesString(g))
	}
}

func TestParseTurtleErrors(t *testing.T) {
	bad := []string{
		`ex:w1 ex:brand "Seiko" .`,                    // undeclared prefix
		`@prefix ex: <http://e/> ex:a ex:b ex:c .`,    // missing dot after prefix
		`@prefix ex: <http://e/> . ex:a ex:b "open .`, // unterminated literal
		`@prefix ex: <http://e/> . ex:a "lit" ex:c .`, // literal predicate
		`@prefix ex: <http://e/> . ex:a ex:b ex:c`,    // missing final dot
		`@prefix ex: <http://e/> . ex:a ex:b +. `,     // malformed number
	}
	for _, doc := range bad {
		if _, err := ParseTurtle(strings.NewReader(doc)); err == nil {
			t.Errorf("ParseTurtle accepted %q", doc)
		}
	}
}

func TestParseTurtleLongLiteral(t *testing.T) {
	doc := "@prefix ex: <http://e/> .\nex:a ex:desc \"\"\"line one\nline two\"\"\" ."
	g, err := ParseTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := g.All()[0].Object.(Literal)
	if !ok || lit.Value != "line one\nline two" {
		t.Fatalf("long literal parsed as %v", g.All()[0].Object)
	}
}

// Property: every generated graph survives an N-Triples round trip.
func TestNTriplesRoundTripProperty(t *testing.T) {
	f := func(rows []struct {
		S, P uint8
		V    string
	}) bool {
		g := NewGraph()
		for _, r := range rows {
			g.MustAdd(T(ex(fmt.Sprintf("s%d", r.S%16)), ex(fmt.Sprintf("p%d", r.P%4)), String(r.V)))
		}
		parsed, err := ParseNTriples(strings.NewReader(NTriplesString(g)))
		return err == nil && g.Equal(parsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every generated graph survives a Turtle round trip.
func TestTurtleRoundTripProperty(t *testing.T) {
	f := func(rows []struct {
		S, P uint8
		N    int16
	}) bool {
		g := NewGraph()
		for _, r := range rows {
			g.MustAdd(T(ex(fmt.Sprintf("s%d", r.S%16)), ex(fmt.Sprintf("p%d", r.P%4)), Integer(int64(r.N))))
		}
		parsed, err := ParseTurtle(strings.NewReader(TurtleString(g, PrefixMap{"ex": "http://example.org/"})))
		return err == nil && g.Equal(parsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPrefixMapShorten(t *testing.T) {
	pm := PrefixMap{"ex": "http://example.org/"}
	if got, ok := pm.Shorten(IRI("http://example.org/Brand")); !ok || got != "ex:Brand" {
		t.Errorf("Shorten = %q, %v", got, ok)
	}
	if _, ok := pm.Shorten(IRI("http://other.org/Brand")); ok {
		t.Error("shortened IRI outside namespace")
	}
	// Local names with characters Turtle cannot express stay full.
	if _, ok := pm.Shorten(IRI("http://example.org/a b")); ok {
		t.Error("shortened local name with space")
	}
	if _, ok := pm.Shorten(IRI("http://example.org/name.")); ok {
		t.Error("shortened local name with trailing dot")
	}
}
