package instance

// docwriter_test.go holds the JSON, XML and text writers to their
// specifications. The reference documents are built the way the writers
// used to build them: JSON by encoding/json over the jsonInstance
// projection, XML by fmt and xml.EscapeText, text by fmt. Every document
// serializeTo writes — whole (Serialize), in default chunks
// (SerializeChunked) and in chunks far smaller than one instance — must
// equal its reference byte for byte, on generated worlds, hand-built
// results and fuzzed values.

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/workload"
)

// jsonInstance is the JSON projection of an instance, as encoding/json
// writes it.
type jsonInstance struct {
	ID      string              `json:"id"`
	Class   string              `json:"class"`
	Values  map[string][]string `json:"values"`
	Links   map[string][]string `json:"links,omitempty"`
	Sources []string            `json:"sources,omitempty"`
}

// jsonInstanceOf projects one instance.
func jsonInstanceOf(in *Instance) jsonInstance {
	ji := jsonInstance{
		ID:      in.ID,
		Class:   in.Class.Path(),
		Values:  valueMap(in),
		Sources: in.Sources,
	}
	if len(in.Links) > 0 {
		ji.Links = map[string][]string{}
		for name, targets := range linkMap(in) {
			for _, t := range targets {
				ji.Links[name] = append(ji.Links[name], t.ID)
			}
		}
	}
	return ji
}

// referenceJSON is the JSON oracle: json.Encoder with two-space indent
// over the whole envelope.
func referenceJSON(res *Result) (string, error) {
	type envelope struct {
		Query   string         `json:"query"`
		Matched []jsonInstance `json:"matched"`
		Related []jsonInstance `json:"related,omitempty"`
		Errors  []string       `json:"errors,omitempty"`
		Missing []string       `json:"missing,omitempty"`
	}
	ref := envelope{Query: res.Plan.Query.String(), Matched: []jsonInstance{}, Missing: res.Missing}
	for _, in := range res.Matched {
		ref.Matched = append(ref.Matched, jsonInstanceOf(in))
	}
	for _, in := range res.Related {
		ref.Related = append(ref.Related, jsonInstanceOf(in))
	}
	for _, e := range res.Errors {
		ref.Errors = append(ref.Errors, e.Error())
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(ref)
	return b.String(), err
}

// referenceXML is the XML oracle: every instance through
// referenceXMLInstance between the document's head and tail.
func referenceXML(g *Generator, res *Result) (string, error) {
	var b bytes.Buffer
	b.WriteString(xml.Header + "<s2s-result>\n")
	for _, in := range res.Instances() {
		if err := referenceXMLInstance(g, &b, in); err != nil {
			return "", err
		}
	}
	b.WriteString("</s2s-result>\n")
	return b.String(), nil
}

// referenceXMLInstance is the fmt-based <instance> writer the direct
// appender replaced. It sorts attribute IDs and relation names itself,
// over map projections, so it also checks the order of Attrs and Links.
func referenceXMLInstance(g *Generator, b *bytes.Buffer, in *Instance) error {
	fmt.Fprintf(b, "  <instance id=%q class=%q>\n", in.ID, in.Class.Path())
	values, links := valueMap(in), linkMap(in)
	ids := make([]string, 0, len(values))
	for id := range values {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		attr, ok := g.ont.Attribute(id)
		if !ok {
			return fmt.Errorf("instance: unknown attribute %q", id)
		}
		for _, v := range values[id] {
			fmt.Fprintf(b, "    <attribute id=%q name=%q>", attr.ID(), attr.Name)
			if err := xml.EscapeText(b, []byte(strings.TrimSpace(v))); err != nil {
				return err
			}
			b.WriteString("</attribute>\n")
		}
	}
	relNames := make([]string, 0, len(links))
	for name := range links {
		relNames = append(relNames, name)
	}
	sort.Strings(relNames)
	for _, name := range relNames {
		for _, t := range links[name] {
			fmt.Fprintf(b, "    <relation name=%q target=%q/>\n", name, t.ID)
		}
	}
	b.WriteString("  </instance>\n")
	return nil
}

// referenceText is the text oracle: the fmt-based writer the appending
// text writer replaced.
func referenceText(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", res.Plan.Query.String())
	fmt.Fprintf(&b, "matched: %d, related: %d, errors: %d\n", len(res.Matched), len(res.Related), len(res.Errors))
	for _, in := range res.Instances() {
		fmt.Fprintf(&b, "- %s (%s) from %s\n", in.ID, in.Class.Path(), strings.Join(in.Sources, ", "))
		for _, a := range in.Attrs {
			fmt.Fprintf(&b, "    %s = %s\n", a.ID, strings.Join(a.Values, " | "))
		}
		for _, l := range in.Links {
			var ids []string
			for _, t := range l.Targets {
				ids = append(ids, t.ID)
			}
			fmt.Fprintf(&b, "    %s -> %s\n", l.Name, strings.Join(ids, ", "))
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(&b, "! %s\n", e.Error())
	}
	for _, m := range res.Missing {
		fmt.Fprintf(&b, "? unmapped attribute %s\n", m)
	}
	return b.String()
}

// checkMatchesReference compares the JSON, XML and text documents of
// res, as every serialization path writes them, with the references.
func checkMatchesReference(t *testing.T, g *Generator, res *Result, name string) {
	t.Helper()
	refs := map[Format]func() (string, error){
		FormatJSON: func() (string, error) { return referenceJSON(res) },
		FormatXML:  func() (string, error) { return referenceXML(g, res) },
		FormatText: func() (string, error) { return referenceText(res), nil },
	}
	paths := map[string]func(Format) (string, error){
		"Serialize": func(f Format) (string, error) { return serializeString(g, res, f) },
		"SerializeChunked": func(f Format) (string, error) {
			var b strings.Builder
			_, err := g.SerializeChunked(&b, res, f)
			return b.String(), err
		},
		"chunks of 16 bytes": func(f Format) (string, error) {
			var b strings.Builder
			cw := NewChunkedWriter(&b, 16)
			err := g.serializeTo(cw, res, f)
			if err == nil {
				err = cw.Flush()
			}
			return b.String(), err
		},
	}
	for f, ref := range refs {
		want, wantErr := ref()
		for path, serialize := range paths {
			got, err := serialize(f)
			if wantErr != nil || err != nil {
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s/%s/%s: err = %v, reference err = %v", name, f, path, err, wantErr)
				}
				continue
			}
			if got != want {
				t.Fatalf("%s/%s/%s: writer diverges from the reference at byte %d\n--- writer ---\n%s\n--- reference ---\n%s",
					name, f, path, firstDiff(got, want), got, want)
			}
		}
	}
}

// TestJSONPiecesMatchEncoder holds the piecewise JSON writer to its
// specification: the document equals what json.Encoder with two-space
// indent writes for the whole envelope — field order, omitempty, sorted
// map keys, HTML escaping and trailing newline included — on results
// that exercise every envelope field and on the empty result.
func TestJSONPiecesMatchEncoder(t *testing.T) {
	w := newWorld(t)
	p := plan(t, w.ont, "SELECT product WHERE brand='Seiko'")
	full := &extract.ResultSet{
		Fragments: []extract.Fragment{
			frag("thing.product.brand", "DB_ID_45", "Seiko", "Seiko", "Casio"),
			frag("thing.product.model", "DB_ID_45", "<5 & \"Sports\">", "SKX", "F91"),
			frag("thing.provider.name", "DB_ID_45", "TimeHouse"),
		},
		Errors:  []extract.SourceError{{SourceID: "web_1", AttributeID: "thing.product.price", Err: errors.New("fetch <failed>")}},
		Missing: []string{"thing.product.watch.case"},
	}
	for name, rs := range map[string]*extract.ResultSet{"full": full, "empty": {}} {
		res, err := w.gen.GenerateOpts(p, rs, GenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if name == "full" && (len(res.Matched) != 2 || len(res.Related) != 1) {
			t.Fatalf("fixture: matched/related = %d/%d, want 2/1", len(res.Matched), len(res.Related))
		}
		want, err := referenceJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := serializeString(w.gen, res, FormatJSON)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: piecewise JSON diverges from json.Encoder\nencoder:\n%s\npieces:\n%s", name, want, got)
		}
	}
}

// TestJSONDropsLinkNamesWithoutTargets pins the projection's treatment
// of a relation name with no targets: the key is dropped, and "links" is
// omitted when no name has a target — never "name": null.
func TestJSONDropsLinkNamesWithoutTargets(t *testing.T) {
	w := newWorld(t)
	watch, _ := w.ont.Class("watch")
	prov := &Instance{ID: "provider_1"}
	for _, c := range []struct {
		links map[string][]*Instance
		want  string
	}{
		{nil, ""},
		{map[string][]*Instance{}, ""},
		{map[string][]*Instance{"hasProvider": nil}, ""},
		{map[string][]*Instance{"hasProvider": {}, "madeBy": nil}, ""},
		{map[string][]*Instance{"hasProvider": {prov}, "madeBy": nil},
			",\n      \"links\": {\n        \"hasProvider\": [\n          \"provider_1\"\n        ]\n      }"},
	} {
		in := &Instance{ID: "watch_1", Class: watch, Attrs: []Attr{}, Links: linksOf(c.links)}
		want := "{\n      \"id\": \"watch_1\",\n      \"class\": \"thing.product.watch\",\n      \"values\": {}" + c.want + "\n    }"
		if got := string(appendJSONInstance(nil, in)); got != want {
			t.Errorf("links %v:\ngot:\n%s\nwant:\n%s", c.links, got, want)
		}
		ref, err := json.MarshalIndent(jsonInstanceOf(in), "    ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(ref) != want {
			t.Errorf("links %v: the encoding/json projection writes\n%s", c.links, ref)
		}
	}
}

// TestDocWritersMatchReference runs the oracle over generated worlds
// (both paper ontologies, every source kind, class-key merging in some)
// and over the hand-built results of the RDF writer's tests.
func TestDocWritersMatchReference(t *testing.T) {
	queries := []string{"SELECT product", "SELECT provider", "SELECT watch WHERE price > 250"}
	related := 0
	for seed := int64(1); seed <= 6; seed++ {
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
			checkMatchesReference(t, gen, res, fmt.Sprintf("seed=%d/%s", seed, q))
		}
	}
	if related == 0 {
		t.Fatal("no generated result has related instances")
	}
	w := newWorld(t)
	for name, res := range map[string]*Result{
		"paper":       paperResult(t, w),
		"failed":      failedResult(t, w),
		"adversarial": adversarialResult(t, w),
		"empty":       {Plan: plan(t, w.ont, "SELECT product")},
	} {
		checkMatchesReference(t, w.gen, res, name)
	}
}

// FuzzDocWritersMatchReference runs the oracle over fuzzed strings: the
// input is split on '|' and spread over the values of up to eight
// instances, their sources, the error report and the unmapped list. The
// bits of n choose the variants: provenance, nil and empty value
// slices, a nil value map, relation names without targets, a fuzzed ID,
// and an unknown attribute (which fails XML, not JSON or text). The seed
// corpus runs in every `go test`.
func FuzzDocWritersMatchReference(f *testing.F) {
	f.Add("Seiko|Casio| Casio |129.99", uint8(0))
	f.Add(`<5 & "Sports">|'apos'|a&b|a<b|c>d|"q"|back\slash`, uint8(0xff))
	f.Add("\x00\x01\x08\x0c\x1f|tab\there|line\nbreak|cr\r|\x7f", uint8(3))
	f.Add("\xff\xfe|ok\xc3|\xed\xa0\x80|\xef\xbf\xbd", uint8(0x15))
	f.Add("\u2028|a\u2029b|Zürich|日本時計", uint8(0x2a))
	f.Add("  lead|trail  |\t both \n| ", uint8(0x06))
	f.Add("", uint8(0x40))
	f.Add("x", uint8(0x80))
	attrs := []string{"thing.product.brand", "thing.product.model", "thing.product.price", "thing.product.watch.case"}
	f.Fuzz(func(t *testing.T, values string, n uint8) {
		w := newWorld(t)
		watch, _ := w.ont.Class("watch")
		provider, _ := w.ont.Class("provider")
		fields := strings.Split(values, "|")
		last := fields[len(fields)-1]
		prov := &Instance{ID: "provider_1", Class: provider, Sources: fields[:1],
			Attrs: []Attr{{ID: "thing.provider.name", Values: fields[:1]}}}
		if n&0x20 != 0 {
			prov.ID = last
		}
		res := &Result{
			Plan:    plan(t, w.ont, "SELECT product"),
			Related: []*Instance{prov},
			Errors:  []extract.SourceError{{SourceID: "web_1", AttributeID: attrs[0], Err: errors.New(last)}},
			Missing: fields[len(fields)/2:],
		}
		var valueMaps []map[string][]string
		var linkMaps []map[string][]*Instance
		for i := 0; i < int(n%8)+1; i++ {
			in := &Instance{ID: fmt.Sprintf("watch_%d", i+1), Class: watch}
			if i%2 == 1 {
				in.Sources = fields
			}
			vs := map[string][]string{}
			for j := 0; j < len(fields); j++ {
				attr := attrs[(i+j)%len(attrs)]
				vs[attr] = append(vs[attr], fields[(i+j)%len(fields)])
			}
			valueMaps = append(valueMaps, vs)
			linkMaps = append(linkMaps, map[string][]*Instance{"hasProvider": {prov}})
			res.Matched = append(res.Matched, in)
		}
		first, final := 0, len(res.Matched)-1
		if n&0x02 != 0 {
			valueMaps[first]["thing.product.watch.water_resistance"] = nil
			valueMaps[first]["thing.product.watch.movement"] = []string{}
		}
		if n&0x04 != 0 {
			valueMaps[final] = nil
		}
		if n&0x08 != 0 {
			linkMaps[first]["madeBy"] = nil
			linkMaps[final] = map[string][]*Instance{"hasProvider": {}}
		}
		if n&0x10 != 0 {
			valueMaps[final] = map[string][]string{"thing.product.nosuch": fields}
		}
		for i, in := range res.Matched {
			in.Attrs, in.Links = attrsOf(valueMaps[i]), linksOf(linkMaps[i])
		}
		w.gen.Provenance = n&1 == 1
		checkMatchesReference(t, w.gen, res, "fuzz")
	})
}
