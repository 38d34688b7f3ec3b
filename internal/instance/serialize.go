package instance

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/ontology"
	"repro/internal/owl"
	"repro/internal/rdf"
)

// bufPool recycles Serialize's staging buffers across queries, so
// repeated serialization stops allocating (and growing) a fresh buffer
// per call.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the capacity returned to the pool; one huge result
// must not pin its buffer forever.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// Format is an output serialization format. OWL (RDF/XML) is the paper's
// primary output; the rest are the adaptable alternatives of §2.6.
type Format int

// Output formats.
const (
	FormatOWL Format = iota + 1
	FormatTurtle
	FormatNTriples
	FormatXML
	FormatJSON
	FormatText
)

func (f Format) String() string {
	switch f {
	case FormatOWL:
		return "owl"
	case FormatTurtle:
		return "turtle"
	case FormatNTriples:
		return "ntriples"
	case FormatXML:
		return "xml"
	case FormatJSON:
		return "json"
	case FormatText:
		return "text"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat resolves a format name.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "owl", "rdfxml", "rdf/xml", "rdf-xml":
		return FormatOWL, nil
	case "turtle", "ttl":
		return FormatTurtle, nil
	case "ntriples", "nt", "n-triples":
		return FormatNTriples, nil
	case "xml":
		return FormatXML, nil
	case "json":
		return FormatJSON, nil
	case "text", "txt", "plain":
		return FormatText, nil
	default:
		return 0, fmt.Errorf("instance: unknown output format %q", s)
	}
}

// ToGraph converts a result into RDF: each instance becomes a named
// individual typed by its class, attribute values become datatype property
// assertions with XSD-typed literals, and links become object property
// assertions. The whole process is driven by the ontology schema, which is
// how the paper's §2.6 keeps the generator ontology-independent.
func (g *Generator) ToGraph(res *Result) (*rdf.Graph, error) {
	graph := rdf.NewGraph()
	iriOf := func(in *Instance) rdf.IRI {
		return g.ont.Base + rdf.IRI(in.ID)
	}
	emit := func(in *Instance) error {
		iri := iriOf(in)
		graph.MustAdd(rdf.T(iri, rdf.RDFType, g.ont.ClassIRI(in.Class)))
		graph.MustAdd(rdf.T(iri, rdf.RDFType, owl.NamedIndividual))
		if g.Provenance {
			for _, src := range in.Sources {
				graph.MustAdd(rdf.T(iri, SourcedFrom, rdf.String(src)))
			}
		}
		for _, a := range in.Attrs {
			attr, ok := g.ont.Attribute(a.ID)
			if !ok {
				return fmt.Errorf("instance: %s has value for unknown attribute %q", in.ID, a.ID)
			}
			for _, v := range a.Values {
				lit := rdf.Literal{Value: strings.TrimSpace(v)}
				if attr.Datatype != "" && attr.Datatype != rdf.XSDString {
					lit.Datatype = attr.Datatype
				}
				graph.MustAdd(rdf.T(iri, g.ont.AttributeIRI(attr), lit))
			}
		}
		for _, l := range in.Links {
			rel := findRelation(in.Class, l.Name)
			if rel == nil {
				return fmt.Errorf("instance: %s links through unknown relation %q", in.ID, l.Name)
			}
			for _, target := range l.Targets {
				graph.MustAdd(rdf.T(iri, g.ont.RelationIRI(rel), iriOf(target)))
			}
		}
		return nil
	}
	for _, in := range res.Instances() {
		if err := emit(in); err != nil {
			return nil, err
		}
	}
	return graph, nil
}

func findRelation(c *ontology.Class, name string) *ontology.Relation {
	for cur := c; cur != nil; cur = cur.Parent {
		for _, r := range cur.Relations {
			if strings.EqualFold(r.Name, name) {
				return r
			}
		}
	}
	return nil
}

// Serialize writes the result in the requested format. The whole
// document is staged in a pooled buffer and handed to w as one write;
// SerializeChunked is the incremental alternative.
func (g *Generator) Serialize(w io.Writer, res *Result, format Format) error {
	b := getBuf()
	defer putBuf(b)
	if err := g.serializeTo(b, res, format); err != nil {
		return err
	}
	_, err := w.Write(b.Bytes())
	return err
}

// stringWriter is the serialization target: bytes.Buffer (Serialize's
// pooled staging buffer) and ChunkedWriter (SerializeChunked and the
// eager path) both satisfy it. A writer appends a piece to
// AvailableBuffer() and passes the result to Write, so a piece that fits
// the spare capacity is formed in place; Grow reserves that capacity.
type stringWriter interface {
	io.Writer
	io.StringWriter
	AvailableBuffer() []byte
	Grow(n int)
}

// serializeTo is the one serializer behind Serialize and
// SerializeChunked: the same bytes reach w whichever writer it is.
func (g *Generator) serializeTo(w stringWriter, res *Result, format Format) error {
	if dw, ok := docWriters[format]; ok {
		if err := dw.head(g, w, res.Plan); err != nil {
			return err
		}
		for i, in := range res.Matched {
			if err := dw.instance(g, w, in, i == 0); err != nil {
				return err
			}
		}
		return dw.tail(g, w, res)
	}
	if f, ok := rdfFramings[format]; ok {
		return g.writeRDF(w, res, f)
	}
	if format == FormatText {
		return g.writeText(w, res)
	}
	return fmt.Errorf("instance: unknown format %d", int(format))
}

// commentSyntax is how an RDF syntax comments out the error report: an
// opening line, a prefix per report line, a closing line, and what makes
// a report line legal inside the comment.
type commentSyntax struct {
	open, line, close string
	safe              func(string) string
}

var (
	// xmlComments is one XML comment after the document element; "--"
	// is forbidden inside it.
	xmlComments = commentSyntax{"<!-- s2s:error-report\n", "  ", "-->\n",
		func(s string) string { return strings.ReplaceAll(s, "--", "- -") }}
	// hashComments is a run of '#' line comments, as Turtle and
	// N-Triples write them; a line break would end the comment.
	hashComments = commentSyntax{"# s2s:error-report\n", "#   ", "",
		strings.NewReplacer("\n", " ", "\r", " ").Replace}
)

// writeErrorEpilog appends an RDF answer's error report: comments after
// the document naming every source error and unmapped attribute.
// Comments keep the output parseable, but a B2B consumer (or an operator
// reading the file) sees exactly which parts of the answer are missing —
// the paper's §2.6 requirement that the generator "handles the errors
// ... from the extraction phases" surfaced in every RDF syntax. It is
// omitted entirely for clean results.
func writeErrorEpilog(w io.Writer, res *Result, c commentSyntax) error {
	if len(res.Errors) == 0 && len(res.Missing) == 0 {
		return nil
	}
	b := getBuf()
	defer putBuf(b)
	b.WriteString(c.open)
	for _, e := range res.Errors {
		fmt.Fprintf(b, "%serror: %s\n", c.line, c.safe(e.Error()))
	}
	for _, m := range res.Missing {
		fmt.Fprintf(b, "%sunmapped: %s\n", c.line, c.safe(m))
	}
	b.WriteString(c.close)
	_, err := w.Write(b.Bytes())
	return err
}

// SourcedFrom is the provenance annotation property: it links an instance
// to the IDs of the data sources that contributed its values.
const SourcedFrom rdf.IRI = ontology.S2SNS + "sourcedFrom"

func (g *Generator) prefixes() rdf.PrefixMap {
	p := rdf.DefaultPrefixes()
	p["ont"] = string(g.ont.Base)
	if g.Provenance {
		p["s2s"] = ontology.S2SNS
	}
	return p
}

// writeText emits the plain-text view: header, one instance at a time,
// then the error/missing epilog lines.
func (g *Generator) writeText(b stringWriter, res *Result) error {
	fmt.Fprintf(b, "query: %s\n", res.Plan.Query.String())
	fmt.Fprintf(b, "matched: %d, related: %d, errors: %d\n", len(res.Matched), len(res.Related), len(res.Errors))
	dump := func(in *Instance) {
		fmt.Fprintf(b, "- %s (%s) from %s\n", in.ID, in.Class.Path(), strings.Join(in.Sources, ", "))
		for _, a := range in.Attrs {
			fmt.Fprintf(b, "    %s = %s\n", a.ID, strings.Join(a.Values, " | "))
		}
		for _, l := range in.Links {
			var ids []string
			for _, t := range l.Targets {
				ids = append(ids, t.ID)
			}
			fmt.Fprintf(b, "    %s -> %s\n", l.Name, strings.Join(ids, ", "))
		}
	}
	for _, in := range res.Instances() {
		dump(in)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(b, "! %s\n", e.Error())
	}
	for _, m := range res.Missing {
		fmt.Fprintf(b, "? unmapped attribute %s\n", m)
	}
	return nil
}
